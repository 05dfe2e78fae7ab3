package nn

// TrainScratch reports, for the CharLMs of one shape, how many training
// scratches have been made and how many wait in the free list.
func TrainScratch(vocab, embDim, hidden int) (made, free int) {
	trainPool.mu.Lock()
	defer trainPool.mu.Unlock()
	l := trainPool.lists[lmShape{vocab, embDim, hidden}]
	return l.made, len(l.free)
}

// ForgetTrainScratch empties every free list, as a fresh process starts.
func ForgetTrainScratch() {
	trainPool.mu.Lock()
	defer trainPool.mu.Unlock()
	trainPool.lists = map[lmShape]trainList{}
}
