// Package data provides the datasets the experiments train on and the
// partitioning schemes that distribute them over federated clients.
//
// The paper evaluates on MNIST, CIFAR-10 and WikiText-2. Those corpora are
// not available in this offline environment, so the package generates
// synthetic stand-ins of the same shape (see DESIGN.md, "Substitutions"):
// class-template images plus Gaussian noise for the two vision tasks, and a
// Markov-chain character stream for the language-modeling task. Both are
// learnable by the same model families the paper uses and support the
// label-skewed non-IID splits (l labels per client) the paper evaluates.
package data

import (
	"fmt"
	"math/rand"
)

// Classification is a labeled vector dataset.
type Classification interface {
	// Len reports the number of examples.
	Len() int
	// Input returns the feature vector of example i. The returned slice
	// must not be modified.
	Input(i int) []float64
	// Label returns the class of example i.
	Label(i int) int
	// NumClasses reports how many distinct labels exist.
	NumClasses() int
}

// PartitionIID splits n examples into numClients equal-size shards after a
// seeded shuffle, mimicking an IID split. Remainder examples go to the
// first shards.
func PartitionIID(n, numClients int, seed int64) [][]int {
	if numClients <= 0 {
		panic("data: PartitionIID with non-positive client count")
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	shards := make([][]int, numClients)
	base := n / numClients
	rem := n % numClients
	pos := 0
	for c := 0; c < numClients; c++ {
		size := base
		if c < rem {
			size++
		}
		shards[c] = append([]int(nil), perm[pos:pos+size]...)
		pos += size
	}
	return shards
}

// PartitionByLabel produces the paper's non-IID split: each client receives
// examples drawn from exactly labelsPerClient distinct labels, with the
// dataset split into equal-size shards. Labels are assigned round-robin so
// every label is covered when numClients*labelsPerClient >= NumClasses.
func PartitionByLabel(ds Classification, numClients, labelsPerClient int, seed int64) [][]int {
	if labelsPerClient <= 0 || labelsPerClient > ds.NumClasses() {
		panic(fmt.Sprintf("data: labelsPerClient %d out of range 1..%d",
			labelsPerClient, ds.NumClasses()))
	}
	rng := rand.New(rand.NewSource(seed))

	// Bucket example indices per label, shuffled within each bucket.
	byLabel := make([][]int, ds.NumClasses())
	for i := 0; i < ds.Len(); i++ {
		l := ds.Label(i)
		byLabel[l] = append(byLabel[l], i)
	}
	for _, b := range byLabel {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}

	// Assign labelsPerClient labels to each client, cycling through a
	// shuffled label order so label popularity stays balanced.
	labelOrder := rng.Perm(ds.NumClasses())
	clientLabels := make([][]int, numClients)
	li := 0
	for c := 0; c < numClients; c++ {
		for k := 0; k < labelsPerClient; k++ {
			clientLabels[c] = append(clientLabels[c], labelOrder[li%len(labelOrder)])
			li++
		}
	}

	// Count how many clients want each label, then split each label bucket
	// into that many contiguous chunks.
	demand := make([]int, ds.NumClasses())
	for _, ls := range clientLabels {
		for _, l := range ls {
			demand[l]++
		}
	}
	next := make([]int, ds.NumClasses()) // next chunk index per label
	shards := make([][]int, numClients)
	for c := 0; c < numClients; c++ {
		for _, l := range clientLabels[c] {
			bucket := byLabel[l]
			chunk := len(bucket) / demand[l]
			start := next[l] * chunk
			end := start + chunk
			if next[l] == demand[l]-1 {
				end = len(bucket) // last taker absorbs the remainder
			}
			shards[c] = append(shards[c], bucket[start:end]...)
			next[l]++
		}
	}
	return shards
}
