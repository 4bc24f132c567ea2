// On-disk signature store: one file per collection path under Options.Dir,
// named by the hex MD4 of the path so arbitrary paths map to flat, safe
// filenames. Entries are versioned and checksummed; anything that fails to
// parse — wrong magic, future version, truncation, checksum mismatch, or a
// key that no longer matches — is treated as a cache miss and discarded,
// never surfaced as an error. Entries are written by dirio.WriteCache, the
// best-effort cache discipline: a crash can lose or tear one, and a torn one
// fails its checksum and reads as a miss.
package sigcache

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"

	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/wire"
)

// diskMagic and diskVersion head every entry file. Bump diskVersion when the
// layout changes; old files then read as misses and are rewritten.
//
// Version history:
//
//	1: initial layout; the stored signature length was decoded but never
//	   cross-checked against the key's file size, so an entry whose key and
//	   signature disagreed could be served.
//	2: same byte layout, but decodeEntry requires the signature length to
//	   equal the key's size; the bump forces every v1 entry to read as a
//	   miss and be rewritten under the stricter rule.
//	3: the key gained the inode change time (ctime varint after the mtime),
//	   closing the restored-mtime stale hit on platforms that report one;
//	   v2 entries read as misses and are rewritten under the wider key.
var diskMagic = [4]byte{'M', 'S', 'I', 'G'}

const diskVersion = 3

// maxDiskEntry bounds a level's block size, as corruption armor.
const maxDiskEntry = 1 << 30

// entryPath returns the store filename for a collection path.
func (c *Cache) entryPath(path string) string {
	sum := md4.Sum([]byte(path))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".sig")
}

// storeDisk persists (k, sig). Failures are silent: the store is an
// accelerator, and the worst outcome of a lost write is a future
// recomputation.
func (c *Cache) storeDisk(k Key, sig *Sig) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	blockSizes, tables, _ := sig.snapshot(true)
	var u64 [8]byte
	b := wire.NewBuffer(64 + len(k.Path))
	b.Raw(diskMagic[:])
	b.Byte(diskVersion)
	b.String(k.Path)
	b.Uvarint(uint64(k.Size))
	b.Varint(k.MTime)
	b.Varint(k.CTime)
	b.Raw(binary.LittleEndian.AppendUint64(u64[:0], k.Fingerprint))
	b.Uvarint(uint64(sig.Len))
	b.Raw(sig.Sum[:])
	b.Uvarint(uint64(len(blockSizes)))
	for i, bs := range blockSizes {
		b.Uvarint(uint64(bs))
		b.Uvarint(uint64(len(tables[i])))
		for _, h := range tables[i] {
			b.Raw(binary.LittleEndian.AppendUint64(u64[:0], h))
		}
	}
	_ = dirio.WriteCache(c.entryPath(k.Path), b.Build())
}

// loadDisk reads and validates the entry for k. ok is false for any defect.
func (c *Cache) loadDisk(k Key) (sig *Sig, ok bool) {
	raw, err := os.ReadFile(c.entryPath(k.Path))
	if err != nil {
		return nil, false
	}
	sig, ok = decodeEntry(raw, k)
	if !ok {
		c.badEntries.Add(1)
		c.removeDisk(k.Path)
	}
	return sig, ok
}

// removeDisk best-effort deletes the entry for path.
func (c *Cache) removeDisk(path string) {
	os.Remove(c.entryPath(path))
}

// decodeEntry parses one entry file and checks it against the wanted key.
// Allocation is bounded by len(raw): a level table is believed only as far
// as the bytes it needs are there.
func decodeEntry(raw []byte, want Key) (*Sig, bool) {
	body, ok := dirio.Unseal(raw)
	if !ok {
		return nil, false
	}
	p := wire.NewParser(body)
	head, err := p.Raw(len(diskMagic) + 1)
	if err != nil || [4]byte(head) != diskMagic || head[4] != diskVersion {
		return nil, false
	}
	path, err1 := p.String()
	size, err2 := p.Uvarint()
	mtime, err3 := p.Varint()
	ctime, err4 := p.Varint()
	fp, err5 := p.Raw(8)
	sigLen, err6 := p.Uvarint()
	sum, err7 := p.Raw(md4.Size)
	nLevels, err8 := p.Uvarint()
	if cmp.Or(err1, err2, err3, err4, err5, err6, err7, err8) != nil {
		return nil, false
	}
	got := Key{Path: path, Size: int64(size), MTime: mtime, CTime: ctime, Fingerprint: binary.LittleEndian.Uint64(fp)}
	// The signature must have been computed over exactly the keyed content:
	// size (the length check) and mtime nanoseconds (in the Key comparison)
	// both participate, so a same-second rewrite or a key/signature mismatch
	// can never serve a stale signature.
	if got != want || int64(sigLen) != want.Size || nLevels > 64 {
		return nil, false
	}
	sig := NewSig(int64(sigLen), [md4.Size]byte(sum))
	for range nLevels {
		b, err1 := p.Uvarint()
		count, err2 := p.Uvarint()
		if err1 != nil || err2 != nil || b == 0 || b > maxDiskEntry || count > uint64(p.Remaining()/8) {
			return nil, false
		}
		hashes, _ := p.Raw(int(count) * 8)
		table := make([]uint64, count)
		for j := range table {
			table[j] = binary.LittleEndian.Uint64(hashes[8*j:])
		}
		sig.setLevel(int(b), table)
	}
	if p.Remaining() != 0 {
		return nil, false
	}
	return sig, true
}
