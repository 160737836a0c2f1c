package datanode

import (
	"sync"

	"aurora/internal/invariant"
)

// blockBufs is one datanode's free list of block-sized buffers. It
// supplies the buffers a block passes through on its way in or out —
// the stores' Get results and the write handler's receive buffer, which
// becomes a memory store's replica — so moving a block costs a copy,
// not an allocation plus a zeroing plus a collection. A buffer is handed
// out to exactly one owner and comes back only at the sites where that
// owner is provably done with it (DESIGN.md §15.6); a buffer that is
// never released is simply collected. The zero value is ready to use.
type blockBufs struct {
	pool sync.Pool // of *[]byte
}

// poison is what a released buffer is filled with in debug builds.
const poison = 0xDB

// get returns a buffer of length n whose contents are unspecified. A
// pooled buffer that is too small is dropped rather than kept: blocks of
// one cluster share a size, so the list converges on it.
func (f *blockBufs) get(n int) []byte {
	if p, ok := f.pool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// getExact is get for a buffer a store may keep: its capacity is
// exactly n, so a replica pins no more memory than its length. A pooled
// buffer of another size is dropped, as get drops one too small.
func (f *blockBufs) getExact(n int) []byte {
	if p, ok := f.pool.Get().(*[]byte); ok && cap(*p) == n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// put releases a buffer obtained from get (or any slice the caller
// exclusively owns). The caller must not touch it afterwards: under
// -tags invariantdebug it is overwritten with poison first, so a
// use-after-release shows up as a checksum failure or wrong bytes in
// the race/chaos builds instead of corrupting a later block silently.
func (f *blockBufs) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if invariant.Enabled {
		for i := range b {
			b[i] = poison
		}
	}
	f.pool.Put(&b)
}
