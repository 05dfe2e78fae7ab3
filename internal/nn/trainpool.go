package nn

import "sync"

// trainLists keeps the training scratch of every model not training, one
// *trainList per shape (a CharLM's lmShape, a Network's netShape), which a
// model looks up once, when it is built. A scratch is made only when its
// list is empty, so a list's made is the peak of models of that shape
// training at once: goroutines, not models.
var trainLists sync.Map

type trainList struct {
	mu   sync.Mutex
	free []any //spyker:guardedby(mu)
	made int   //spyker:guardedby(mu)
}

func listFor(shape any) *trainList {
	l, _ := trainLists.LoadOrStore(shape, new(trainList))
	return l.(*trainList)
}

// take returns a free scratch, or nil after counting the one the caller
// then makes.
func (l *trainList) take() (t any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		t, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
		return t
	}
	l.made++
	return nil
}

func (l *trainList) put(t any) {
	l.mu.Lock()
	l.free = append(l.free, t)
	l.mu.Unlock()
}
