package encoding

import (
	"container/heap"
	"sort"

	"compso/internal/bitstream"
	"compso/internal/pool"
)

// Huffman is a canonical Huffman coder over bytes. It is not part of the
// nvCOMP Table 2 set; it exists as the entropy stage of the SZ baseline
// compressor, which the paper describes as "prediction, RN-based
// quantization, and Huffman encoding" (§2.4).
type Huffman struct{}

// Name implements Codec.
func (Huffman) Name() string { return "Huffman" }

const huffMaxCodeLen = 57 // bounded by bitstream.Reader's width limit

// EncodeAppend implements Codec. The bit writer runs over a pooled
// buffer so per-call allocations are limited to dst growth.
func (Huffman) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	var counts [256]int
	for _, b := range src {
		counts[b]++
	}
	lens := huffCodeLengths(counts[:])
	codes := canonicalCodes(lens)

	// Header: 256 code lengths, 6 bits each (lengths <= 57 fit). The
	// pooled buffer holds the whole stream, so it never grows into storage
	// the arena did not make: put back, such storage is a foreign buffer
	// whose address the pool's debug tracking cannot reap once sync.Pool
	// drops it, and a later allocation there reads as a double Put.
	bits := 6 * len(lens)
	for b, c := range counts {
		bits += c * lens[b]
	}
	var w bitstream.Writer
	w.ResetBuf(pool.Bytes((bits + 7) / 8))
	for _, l := range lens {
		w.WriteBits(uint64(l), 6)
	}
	for _, b := range src {
		// Canonical codes compare MSB-first, so emit them bit by bit from
		// the top; the LSB-first bitstream would otherwise reverse them.
		c, l := codes[b], lens[b]
		for k := l - 1; k >= 0; k-- {
			w.WriteBit(c >> uint(k))
		}
	}
	out = append(out, w.Bytes()...)
	pool.PutBytes(w.Buf())
	return out
}

// DecodeInto implements Codec. Decoding walks the canonical
// firstCode/count tables (one comparison per code length) instead of probing
// a map per bit, which is both allocation-free and substantially faster.
func (Huffman) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "Huffman")
	if err != nil || len(dst) == 0 {
		return dst, err
	}
	r := bitstream.NewReader(src)
	var lens [256]int
	for i := range lens {
		v, err := r.ReadBits(6)
		if err != nil {
			return nil, corruptf("Huffman: truncated length table")
		}
		if v > huffMaxCodeLen {
			return nil, corruptf("Huffman: code length %d for symbol %d", v, i)
		}
		lens[i] = int(v)
	}
	// Canonical decode tables: symbols sorted by (length, symbol) — the same
	// order canonicalCodes assigns codes in — plus, per length, the first
	// code value and the base index into the symbol array. A prefix of the
	// stream is a codeword of length L iff its value lies in
	// [firstCode[L], firstCode[L]+count[L]).
	var count [huffMaxCodeLen + 1]int
	for _, l := range lens {
		if l > 0 {
			count[l]++
		}
	}
	var syms [256]byte
	var firstCode [huffMaxCodeLen + 1]uint64
	var symBase [huffMaxCodeLen + 1]int
	idx := 0
	var code uint64
	prevLen := 0
	for l := 1; l <= huffMaxCodeLen; l++ {
		if count[l] == 0 {
			continue
		}
		code <<= uint(l - prevLen)
		firstCode[l] = code
		symBase[l] = idx
		code += uint64(count[l])
		prevLen = l
		for s := 0; s < 256; s++ {
			if lens[s] == l {
				syms[idx] = byte(s)
				idx++
			}
		}
	}
	if idx == 0 {
		return nil, corruptf("Huffman: empty code table with %d symbols expected", len(dst))
	}
	for i := range dst {
		var c uint64
		length := 0
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, corruptf("Huffman: truncated body at output %d", i)
			}
			// Canonical codes are assigned MSB-first; accumulate that way.
			c = c<<1 | bit
			length++
			if length > huffMaxCodeLen {
				return nil, corruptf("Huffman: code longer than %d bits", huffMaxCodeLen)
			}
			if cnt := count[length]; cnt > 0 {
				if off := c - firstCode[length]; off < uint64(cnt) {
					dst[i] = syms[symBase[length]+int(off)]
					break
				}
			}
		}
	}
	return dst, nil
}

// huffCodeLengths builds Huffman code lengths from symbol counts using the
// standard two-queue/heap algorithm. Single-symbol inputs get length 1.
func huffCodeLengths(counts []int) []int {
	lens := make([]int, len(counts))
	type node struct {
		weight      int
		sym         int // >= 0 for leaves
		left, right int // indices into nodes for internal
	}
	nodes := make([]node, 0, 2*len(counts))
	h := &nodeHeap{}
	for s, c := range counts {
		if c > 0 {
			nodes = append(nodes, node{weight: c, sym: s, left: -1, right: -1})
			heap.Push(h, heapItem{weight: c, idx: len(nodes) - 1})
		}
	}
	if h.Len() == 1 {
		lens[nodes[0].sym] = 1
		return lens
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(heapItem)
		b := heap.Pop(h).(heapItem)
		nodes = append(nodes, node{weight: a.weight + b.weight, sym: -1, left: a.idx, right: b.idx})
		heap.Push(h, heapItem{weight: a.weight + b.weight, idx: len(nodes) - 1})
	}
	// Depth-first traversal assigning depths as lengths.
	root := heap.Pop(h).(heapItem).idx
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.idx]
		if nd.sym >= 0 {
			lens[nd.sym] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	// Cap pathological depths (only reachable with adversarial count
	// distributions beyond 2^57 total) — flatten by rebuilding as depth-57.
	for s, l := range lens {
		if l > huffMaxCodeLen {
			lens[s] = huffMaxCodeLen
		}
	}
	return lens
}

// canonicalCodes assigns canonical (MSB-first) codes from code lengths.
func canonicalCodes(lens []int) []uint64 {
	type symLen struct{ sym, len int }
	order := make([]symLen, 0, len(lens))
	for s, l := range lens {
		if l > 0 {
			order = append(order, symLen{s, l})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].len != order[j].len {
			return order[i].len < order[j].len
		}
		return order[i].sym < order[j].sym
	})
	codes := make([]uint64, len(lens))
	var code uint64
	prevLen := 0
	for _, sl := range order {
		code <<= uint(sl.len - prevLen)
		codes[sl.sym] = code
		code++
		prevLen = sl.len
	}
	return codes
}

type heapItem struct{ weight, idx int }

type nodeHeap []heapItem

func (h nodeHeap) Len() int      { return len(h) }
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].idx < h[j].idx
}
func (h *nodeHeap) Push(x any) { *h = append(*h, x.(heapItem)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
