package batch

import "sync"

// slabElems is the default slab size in elements. One slab holds 64Ki
// values (512KiB for int64) — large enough that a typical operator output
// costs zero allocations once the arena is warm, small enough that a run
// over tiny tables does not pin megabytes.
const slabElems = 1 << 16

// slabs is a bump allocator over a list of reusable slabs of one element
// type. Alloc carves from the current slab and appends a fresh slab (sized
// max(slabElems, n)) only when nothing already held fits; Reset rewinds the
// carve pointer without releasing the slabs, so steady-state allocation is
// pointer arithmetic.
type slabs[T int64 | int32] struct {
	all [][]T
	cur int // slab being carved
	off int // carve offset within all[cur]
}

func (s *slabs[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for s.cur < len(s.all) {
		if slab := s.all[s.cur]; s.off+n <= len(slab) {
			out := slab[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.cur++
		s.off = 0
	}
	size := n
	if size < slabElems {
		size = slabElems
	}
	slab := make([]T, size)
	s.all = append(s.all, slab)
	s.off = n
	return slab[:n:n]
}

func (s *slabs[T]) reset() { s.cur, s.off = 0, 0 }

// Arena is a slab allocator for column vectors and selection vectors. The
// engine allocates every operator-lifetime vector from an arena and Resets
// it when the owning scope (a block attempt) ends, so a run's steady-state
// allocation count is independent of row count.
//
// Lifetime rule: nothing allocated from an arena may outlive its Reset.
// Everything that crosses an arena boundary — block outputs, materialized
// tables, reject links, statistic values — is copied out first (Table and
// the statistic stores own their memory).
//
// An Arena is not safe for concurrent use; parallel workers take one each.
type Arena struct {
	i64 slabs[int64]
	i32 slabs[int32]
}

// Int64 returns an uninitialized int64 vector of length n, valid until
// Reset. The vector has full capacity n and must not be appended to.
func (a *Arena) Int64(n int) []int64 { return a.i64.alloc(n) }

// Int32 returns an uninitialized int32 vector (selection vectors, row
// indexes) of length n, valid until Reset.
func (a *Arena) Int32(n int) []int32 { return a.i32.alloc(n) }

// Reset reclaims every vector handed out since the last Reset, keeping the
// slabs for reuse.
func (a *Arena) Reset() {
	a.i64.reset()
	a.i32.reset()
}

// arenaPool recycles arenas (and therefore their slabs) across block
// attempts and runs.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns a reset arena from the pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets the arena and returns it to the pool. The caller must not
// retain any vector allocated from it.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
