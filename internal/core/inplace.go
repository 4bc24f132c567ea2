package core

import (
	"fmt"
	"sort"

	"msync/internal/inplace"
	"msync/internal/md4"
)

// ApplyDeltaInPlace is ApplyDelta reconstructing the current file inside the
// old file's buffer (in the manner of Rasch/Burns in-place rsync, which the
// paper cites): confirmed matches become in-place copy operations, decoded
// gaps become literals, and the planner in internal/inplace orders them so
// no copy's source is clobbered early. The old buffer is consumed; the
// returned slice may alias it. Stats report the planner's extra space.
func (c *ClientFile) ApplyDeltaInPlace(payload []byte) ([]byte, inplace.Stats, error) {
	var st inplace.Stats
	wantSum, enc, err := c.openDelta(payload)
	if err != nil {
		return nil, st, err
	}

	// Tile every cover interval with pieces of confirmed matches: each piece
	// becomes an in-place copy, and the pieces' read ranges, in write order,
	// are the reference — gathered from the old file before any write.
	sorted := append([]match(nil), c.matches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].serverOff < sorted[j].serverOff })
	var ops []inplace.Op
	var reads []interval
	mi := 0
	for _, iv := range c.coverIntervals() {
		for pos := iv.start; pos < iv.end; {
			for mi < len(sorted) && sorted[mi].serverOff+sorted[mi].length <= pos {
				mi++
			}
			if mi >= len(sorted) || sorted[mi].serverOff > pos {
				return nil, st, fmt.Errorf("core: cover gap at %d (internal error)", pos)
			}
			m := sorted[mi]
			l := min(m.serverOff+m.length, iv.end) - pos
			rd := m.clientOff + (pos - m.serverOff)
			ops = append(ops, inplace.Op{WriteOff: pos, ReadOff: rd, Len: l})
			reads = append(reads, interval{rd, rd + l})
			pos += l
		}
	}
	if err := c.decodeGaps(c.fOld, reads, enc, func(g interval, data []byte) {
		ops = append(ops, inplace.Op{WriteOff: g.start, Data: data})
	}); err != nil {
		return nil, st, err
	}

	out, st, err := inplace.Apply(c.fOld, ops, c.n)
	if err != nil {
		return nil, st, err
	}
	c.fOld = nil // consumed
	got := md4.Sum(out)
	if string(got[:]) != string(wantSum) {
		return nil, st, ErrVerifyFailed
	}
	return out, st, nil
}
