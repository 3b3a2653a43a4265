package service

import (
	"math/bits"
	"sync"
)

// minPooledShard is the smallest buffer the shard pool recycles. Below it
// a buffer is a plain make: an 8 KiB object's 2 KiB shards cost less to
// allocate than to pool.
const minPooledShard = 4 << 10

// classBits sets how finely the pool's capacity classes are spaced: there
// are 1<<classBits of them from one power of two to the next (…, 1 MiB,
// 1.125 MiB, 1.25 MiB, …, 1.875 MiB, 2 MiB, 2.25 MiB, …), so a pool buffer
// holds at most an eighth more than it was asked for; with one class per
// power of two, a 1 MiB + 1 byte shard would take 2 MiB in every buffer
// that holds it. At the default 64 KiB stripe unit, the shards of an
// object that is a whole number of MiB up to 16 MiB fit a class exactly.
const classBits = 3

// shardPools holds recycled whole-shard buffers, one pool per capacity
// class (see classFor and classOf). There is no byte cap; the garbage
// collector drops entries that sit idle.
var shardPools [bits.UintSize << classBits]sync.Pool // *[]byte

// getShardBuf returns an n-byte buffer the caller owns until it hands it
// to putShardBuf. Its contents are unspecified: a recycled buffer holds
// whatever its last owner left in it.
func getShardBuf(n int) []byte {
	if b := idleShardBuf(n); b != nil {
		return b
	}
	if n < minPooledShard {
		return make([]byte, n)
	}
	_, size := classFor(n)
	return make([]byte, n, size)
}

// idleShardBuf is getShardBuf without the allocation: an n-byte recycled
// buffer, or nil when its class has none idle.
func idleShardBuf(n int) []byte {
	if n < minPooledShard {
		return nil
	}
	class, _ := classFor(n)
	if p, _ := shardPools[class].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return nil
}

// putShardBuf gives b back for reuse. The caller must own b and not touch
// it afterwards. Any owned buffer may be given back: it joins the largest
// class its capacity holds, and one under minPooledShard is left to the
// garbage collector.
func putShardBuf(b []byte) {
	if cap(b) < minPooledShard {
		return
	}
	idle := b[:0] // not &b: a parameter whose address is taken escapes on every call
	shardPools[classOf(cap(b))].Put(&idle)
}

// classFor returns the smallest class that holds n bytes (n at least
// minPooledShard) and that class's capacity: n rounded up to its top
// classBits+1 bits.
func classFor(n int) (class, size int) {
	s := bits.Len(uint(n)) - 1 - classBits
	m := n >> s
	if n&(1<<s-1) != 0 {
		m++
	}
	return s<<classBits + m, m << s
}

// classOf returns the largest class whose capacity c holds (c at least
// minPooledShard): c rounded down to its top classBits+1 bits.
func classOf(c int) int {
	s := bits.Len(uint(c)) - 1 - classBits
	return s<<classBits + c>>s
}

// putShardBufs gives back every buffer of bufs (nil entries are skipped).
func putShardBufs(bufs [][]byte) {
	for _, b := range bufs {
		putShardBuf(b)
	}
}
