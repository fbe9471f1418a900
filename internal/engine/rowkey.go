package engine

// appendRowKey encodes a row of values into dst as fixed-width
// little-endian bytes and returns the extended slice. Hot paths (hash
// aggregation, distinct counting) reuse one buffer across rows and look up
// maps with string(buf) — the compiler elides that conversion's allocation
// for map access, so steady-state deduplication allocates only when a new
// key is inserted.
func appendRowKey(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = append(dst,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return dst
}

// keySet deduplicates rows of int64 values by their fixed-width encoding.
// It centralizes the reused-buffer idiom every hash-dedup path shares: the
// lookup uses string(kbuf), whose conversion the compiler elides for map
// access, and the guarded assignment in add runs only for first-seen keys —
// an unconditional `seen[string(kbuf)] = true` would copy the key bytes on
// every duplicate row, since map *assignment* conversions are never elided.
type keySet struct {
	seen map[string]bool
	kbuf []byte
}

func newKeySet() keySet { return keySet{seen: make(map[string]bool)} }

// add records vals' key, reporting whether it was first seen.
func (s *keySet) add(vals []int64) bool {
	s.kbuf = appendRowKey(s.kbuf[:0], vals)
	if s.seen[string(s.kbuf)] {
		return false
	}
	s.seen[string(s.kbuf)] = true
	return true
}

// len returns the number of distinct keys recorded.
func (s *keySet) len() int { return len(s.seen) }
