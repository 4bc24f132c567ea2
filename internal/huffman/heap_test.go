package huffman

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap is the container/heap ordering computeLengths used before its heap
// was typed: frequency, then node index.
type refHeap struct {
	nodes []buildNode
	order []int
}

func (h *refHeap) Len() int { return len(h.order) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return h.order[i] < h.order[j]
}
func (h *refHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *refHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *refHeap) Pop() any {
	v := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return v
}

// referenceLengths is computeLengths over container/heap, kept to hold the
// typed heap to the lengths it produced.
func referenceLengths(freq []int64) []uint8 {
	lengths := make([]uint8, len(freq))
	h := &refHeap{}
	for sym, f := range freq {
		if f > 0 {
			h.nodes = append(h.nodes, buildNode{freq: f, sym: sym, left: -1, right: -1})
			h.order = append(h.order, len(h.nodes)-1)
		}
	}
	switch len(h.order) {
	case 0:
		return lengths
	case 1:
		lengths[h.nodes[0].sym] = 1
		return lengths
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, buildNode{freq: h.nodes[a].freq + h.nodes[b].freq, sym: -1, left: a, right: b})
		heap.Push(h, len(h.nodes)-1)
	}
	var walk func(node int, depth uint8)
	walk = func(node int, depth uint8) {
		n := h.nodes[node]
		if n.sym >= 0 {
			lengths[n.sym] = max(depth, 1)
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h.order[0], 0)
	return lengths
}

// TestLengthsMatchContainerHeap: the typed heap yields, symbol for symbol,
// the code lengths of the container/heap build — on uniform random
// frequencies, on runs of ties, and on geometric (skewed) ones whose tree is
// as deep as the alphabet allows.
func TestLengthsMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := [][]int64{{}, {5}, {0, 0, 7}, {1, 1}, {3, 0, 3, 0, 3}}
	for k := 0; k < 300; k++ {
		freq := make([]int64, 1+rng.Intn(600))
		for i := range freq {
			switch k % 3 {
			case 0: // uniform, some unused
				if rng.Intn(4) > 0 {
					freq[i] = 1 + rng.Int63n(1000)
				}
			case 1: // few distinct values: many ties
				freq[i] = int64(rng.Intn(4))
			case 2: // skewed: geometric, capped so the sums stay small
				freq[i] = 1 << uint(rng.Intn(min(40, 1+i)))
			}
		}
		sets = append(sets, freq)
	}
	for _, freq := range sets {
		used := 0
		for _, f := range freq {
			if f > 0 {
				used++
			}
		}
		want := referenceLengths(freq)
		if got := computeLengths(freq, used); !slices.Equal(got, want) {
			t.Fatalf("lengths of %v:\n got %v\nwant %v", freq, got, want)
		}
	}
}
