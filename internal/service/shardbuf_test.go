package service

import (
	"math/rand"
	"testing"
)

// TestShardBufClasses: a pool buffer holds at most an eighth more than it
// was asked for, at any size (a 1 MiB + 1 byte shard does not take 2 MiB),
// and a buffer given back joins a class only if it holds that class's
// capacity, so every request its class serves fits in it. The shards of
// the default geometry's 3 MiB and 5 MiB objects (768 KiB and 1.25 MiB)
// fit their class exactly.
func TestShardBufClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{minPooledShard, minPooledShard + 1, 1<<20 - 1, 1 << 20, 1<<20 + 1, 768 << 10, 1280 << 10, 64 << 20}
	for range 1000 {
		sizes = append(sizes, minPooledShard+rng.Intn(64<<20))
	}
	for _, n := range sizes {
		class, size := classFor(n)
		if size < n || size > n+n/8 {
			t.Fatalf("%d bytes: class capacity %d, want within an eighth above", n, size)
		}
		if classOf(size) != class {
			t.Fatalf("%d bytes: a buffer of the class's capacity %d joins class %d, want %d", n, size, classOf(size), class)
		}
		if size > minPooledShard && classOf(size-1) >= class {
			t.Fatalf("%d bytes: a buffer of %d bytes joins class %d, whose capacity is %d", n, size-1, classOf(size-1), size)
		}
	}
	for _, n := range []int{768 << 10, 1280 << 10} {
		if _, size := classFor(n); size != n {
			t.Fatalf("a %d-byte shard gets a %d-byte class, want an exact fit", n, size)
		}
	}
	for _, n := range []int{1, minPooledShard - 1, minPooledShard, 1<<20 + 1} {
		b := getShardBuf(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("getShardBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		putShardBuf(b)
	}
}
