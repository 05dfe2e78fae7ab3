package nn

import (
	"fmt"
	"reflect"
	"unsafe"
)

// TrainScratch reports, for the CharLMs of one shape, how many training
// scratches have been made and how many wait in the free list.
func TrainScratch(vocab, embDim, hidden int) (made, free int) {
	return listFor(lmShape{vocab, embDim, hidden}).counts()
}

// NetTrainScratch reports the same for the Networks of n's shape.
func NetTrainScratch(n *Network) (made, free int) { return n.scratch.counts() }

func (l *trainList) counts() (made, free int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.made, len(l.free)
}

// ForgetTrainScratch empties every free list, as a fresh process starts.
func ForgetTrainScratch() {
	trainLists.Range(func(_, v any) bool {
		l := v.(*trainList)
		l.mu.Lock()
		l.free, l.made = nil, 0
		l.mu.Unlock()
		return true
	})
}

// HeldBeyondParams lists every slice n holds, in its own fields and its
// layers', that is not a view of its parameter plane: nothing at rest. The
// free list n borrows from is the pool's, not n's, and is not searched.
func HeldBeyondParams(n *Network) []string {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(n.backing)))
	hi := lo + uintptr(len(n.backing))*unsafe.Sizeof(n.backing[0])
	var held []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.Type != reflect.TypeOf((*trainList)(nil)) {
					walk(path+"."+f.Name, v.Field(i))
				}
			}
		case reflect.Slice:
			if k := v.Type().Elem().Kind(); k == reflect.Interface || k == reflect.Pointer {
				for i := 0; i < v.Len(); i++ {
					walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
				}
			} else if p := v.Pointer(); !v.IsNil() && (p < lo || p >= hi) {
				held = append(held, path)
			}
		}
	}
	walk("Network", reflect.ValueOf(n))
	return held
}
