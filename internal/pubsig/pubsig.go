// Package pubsig implements published-signature synchronization: a server
// (e.g. a web server) publishes a small static signature of each file's
// CURRENT version; a client holding an outdated copy downloads the
// signature, determines locally which parts it already has, and fetches
// only the missing byte ranges (one roundtrip of range requests).
//
// This is the paper's "server-friendly web crawling" application (§1.1,
// scenario 3): synchronization support on plain web servers without
// per-client computation — the signature is computed once per version, and
// clients do all matching work themselves. (The same architecture later
// appeared in the zsync tool.) Roles are reversed relative to rsync: the
// signature describes the NEW file, and the rolling search runs over the
// client's OLD file.
package pubsig

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"msync/internal/md4"
	"msync/internal/rolling"
	"msync/internal/wire"
)

// DefaultBlockSize is the default signature block size.
const DefaultBlockSize = 1024

// strongLen is the truncated per-block MD4 length. The whole-file hash
// backstops collisions, as in rsync.
const strongLen = 4

// ErrBadSignature reports a malformed signature blob.
var ErrBadSignature = errors.New("pubsig: malformed signature")

// signature is the parsed form of a published signature.
type signature struct {
	fileLen   int
	blockSize int
	whole     [md4.Size]byte
	weak      []uint32
	strong    [][strongLen]byte
}

// Build produces the signature blob for the current version of a file.
// Publish it alongside the file; it is ~0.8% of the file at the default
// block size.
func Build(cur []byte, blockSize int) []byte {
	if blockSize <= 0 {
		panic("pubsig: block size must be positive")
	}
	b := wire.NewBuffer(len(cur)/blockSize*8 + 64)
	b.Uvarint(uint64(len(cur)))
	b.Uvarint(uint64(blockSize))
	whole := md4.Sum(cur)
	b.Raw(whole[:])
	for off := 0; off < len(cur); off += blockSize {
		end := off + blockSize
		if end > len(cur) {
			end = len(cur)
		}
		blk := cur[off:end]
		var w [4]byte
		weak := rolling.AdlerSum(blk)
		w[0], w[1], w[2], w[3] = byte(weak), byte(weak>>8), byte(weak>>16), byte(weak>>24)
		b.Raw(w[:])
		sum := md4.Sum(blk)
		b.Raw(sum[:strongLen])
	}
	return b.Build()
}

func parse(sig []byte) (*signature, error) {
	p := wire.NewParser(sig)
	fl, err := p.Uvarint()
	if err != nil {
		return nil, ErrBadSignature
	}
	bs, err := p.Uvarint()
	if err != nil || bs == 0 || fl > 1<<40 {
		return nil, ErrBadSignature
	}
	s := &signature{fileLen: int(fl), blockSize: int(bs)}
	raw, err := p.Raw(md4.Size)
	if err != nil {
		return nil, ErrBadSignature
	}
	copy(s.whole[:], raw)
	nBlocks := (s.fileLen + s.blockSize - 1) / s.blockSize
	for i := 0; i < nBlocks; i++ {
		wr, err := p.Raw(4)
		if err != nil {
			return nil, ErrBadSignature
		}
		s.weak = append(s.weak, uint32(wr[0])|uint32(wr[1])<<8|uint32(wr[2])<<16|uint32(wr[3])<<24)
		sr, err := p.Raw(strongLen)
		if err != nil {
			return nil, ErrBadSignature
		}
		var st [strongLen]byte
		copy(st[:], sr)
		s.strong = append(s.strong, st)
	}
	if p.Remaining() != 0 {
		return nil, ErrBadSignature
	}
	return s, nil
}

// Range is a byte range of the current file the client must fetch.
type Range struct{ Off, Len int }

// Plan is the client-side fetch plan: which new-file blocks are available
// locally (and where), and which byte ranges must be fetched.
type Plan struct {
	sig *signature
	// localOff[i] is the old-file offset holding new block i, or -1.
	localOff []int
	// Ranges are the coalesced byte ranges to fetch.
	Ranges []Range
}

// FetchBytes reports the total bytes the plan will fetch.
func (p *Plan) FetchBytes() int {
	n := 0
	for _, r := range p.Ranges {
		n += r.Len
	}
	return n
}

// NewPlan matches the old file against a published signature: a rolling
// scan finds, for every block of the new file, whether its content already
// exists anywhere in old. Unmatched blocks become coalesced fetch ranges.
func NewPlan(old, sig []byte) (*Plan, error) {
	s, err := parse(sig)
	if err != nil {
		return nil, err
	}
	p := &Plan{sig: s, localOff: make([]int, len(s.weak))}
	for i := range p.localOff {
		p.localOff[i] = -1
	}

	// Index weak sums -> block indices (only full-size blocks scan; the
	// final short block is checked separately).
	bs := s.blockSize
	fullBlocks := s.fileLen / bs
	index := make(map[uint32][]int32, fullBlocks)
	for i := 0; i < fullBlocks; i++ {
		index[s.weak[i]] = append(index[s.weak[i]], int32(i))
	}
	if len(old) >= bs && fullBlocks > 0 {
		ad := rolling.NewAdler(bs)
		ad.Init(old)
		for pos := 0; ; pos++ {
			if cands, ok := index[ad.Sum()]; ok {
				var strong [strongLen]byte
				sum := md4.Sum(old[pos : pos+bs])
				copy(strong[:], sum[:strongLen])
				for _, bi := range cands {
					if p.localOff[bi] < 0 && s.strong[bi] == strong {
						p.localOff[bi] = pos
					}
				}
			}
			if pos+bs >= len(old) {
				break
			}
			ad.Roll(old[pos], old[pos+bs])
		}
	}
	// Final short block: compare only against the old file's tail.
	if tail := s.fileLen % bs; tail > 0 && len(old) >= tail {
		bi := len(s.weak) - 1
		cand := old[len(old)-tail:]
		if rolling.AdlerSum(cand) == s.weak[bi] {
			sum := md4.Sum(cand)
			var strong [strongLen]byte
			copy(strong[:], sum[:strongLen])
			if s.strong[bi] == strong {
				p.localOff[bi] = len(old) - tail
			}
		}
	}

	// Coalesce missing blocks into ranges.
	for i := 0; i < len(p.localOff); i++ {
		if p.localOff[i] >= 0 {
			continue
		}
		start := i * bs
		end := start + bs
		for i+1 < len(p.localOff) && p.localOff[i+1] < 0 {
			i++
			end += bs
		}
		if end > s.fileLen {
			end = s.fileLen
		}
		p.Ranges = append(p.Ranges, Range{Off: start, Len: end - start})
	}
	return p, nil
}

// Fetcher retrieves a byte range of the current file (e.g. an HTTP range
// request).
type Fetcher func(off, length int) ([]byte, error)

// ContextFetcher is a Fetcher that honors cancellation and deadlines.
type ContextFetcher func(ctx context.Context, off, length int) ([]byte, error)

// ErrVerifyFailed reports that the reconstructed file failed the whole-file
// check (stale signature or block-hash collision); re-fetch the whole file.
var ErrVerifyFailed = errors.New("pubsig: reconstructed file failed whole-file check")

// Reconstruct executes the plan: local blocks are copied from old, missing
// ranges fetched, and the result verified against the whole-file hash.
func (p *Plan) Reconstruct(old []byte, fetch Fetcher) ([]byte, error) {
	return p.ReconstructContext(context.Background(), old, func(_ context.Context, off, length int) ([]byte, error) {
		return fetch(off, length)
	})
}

// ReconstructContext is Reconstruct under a context: the context is checked
// between fetches and passed through to each one, so a canceled sync stops
// instead of draining the remaining ranges.
func (p *Plan) ReconstructContext(ctx context.Context, old []byte, fetch ContextFetcher) ([]byte, error) {
	s := p.sig
	out := make([]byte, s.fileLen)
	for i, off := range p.localOff {
		if off < 0 {
			continue
		}
		start := i * s.blockSize
		end := start + s.blockSize
		if end > s.fileLen {
			end = s.fileLen
		}
		copy(out[start:end], old[off:])
	}
	for _, r := range p.Ranges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, err := fetch(ctx, r.Off, r.Len)
		if err != nil {
			return nil, fmt.Errorf("pubsig: fetching [%d,%d): %w", r.Off, r.Off+r.Len, err)
		}
		if len(data) != r.Len {
			return nil, fmt.Errorf("pubsig: short range fetch at %d", r.Off)
		}
		copy(out[r.Off:], data)
	}
	if md4.Sum(out) != s.whole {
		return nil, ErrVerifyFailed
	}
	return out, nil
}

// Sync runs the whole flow with both sides local, for cost measurement:
// returns the reconstructed file and the downstream cost (signature +
// fetched ranges).
func Sync(old, cur []byte, blockSize int) (out []byte, downBytes int, err error) {
	sig := Build(cur, blockSize)
	plan, err := NewPlan(old, sig)
	if err != nil {
		return nil, 0, err
	}
	out, err = plan.Reconstruct(old, func(off, length int) ([]byte, error) {
		return cur[off : off+length], nil
	})
	if errors.Is(err, ErrVerifyFailed) {
		// Collision fallback: whole file.
		return append([]byte(nil), cur...), len(sig) + plan.FetchBytes() + len(cur), nil
	}
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(out, cur) {
		return nil, 0, errors.New("pubsig: internal reconstruction error")
	}
	return out, len(sig) + plan.FetchBytes(), nil
}
