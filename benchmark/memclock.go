package main

import (
	"fmt"
	"syscall"
	"time"
)

// memClock says how fast the machine's memory system is while a stage
// runs. The reference box is a small VM on a shared host: its cores are
// its own, but last-level cache and memory bandwidth are not, and the
// time of one random access to a large array swings by a factor of two
// from minute to minute with what the neighbours do. Every store in this
// repository is bound by exactly that access, so a raw edges/s figure
// says more about the neighbours than about the code (two back-to-back
// sets of ten runs of the seed commit differed by up to 40% in their
// medians).
//
// So the timing goroutine interleaves a stage's calls with ticks of this
// clock — a short burst of independent random read-modify-writes over an
// array that, like the stores, is far larger than every cache and the
// TLB's reach (512 MiB in a full run; one of 64 MiB sat in the last-level
// cache and did not follow the stores) — and the stage's times are
// divided by the slowdown the ticks saw, relative to refAccessNs. What
// the end-to-end metrics report is therefore time at the reference memory
// speed. The raw values and the slowdowns are in the -out report.
type memClock struct {
	buf   []byte // mapped outside the Go heap, where 512 MiB of ballast would space out the collector's cycles
	x     uint64
	ticks []float64 // ns per access of each tick since the last slowdown call
}

const (
	tickSteps = 2048 // accesses per tick; about 100us

	// refAccessNs is the reference memory speed: what one access of a
	// tick costs on the reference box while its neighbours are quiet. A
	// constant, so that numbers taken at different times compare.
	refAccessNs = 45.0
)

// newMemClock makes a clock over an array of size bytes, a power of two.
func newMemClock(size int) (*memClock, error) {
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("memory clock: map %d bytes: %w", size, err)
	}
	for i := 0; i < len(buf); i += 4096 { // touch every page now, not inside a tick
		buf[i] = 1
	}
	return &memClock{buf: buf, x: 88172645463325252}, nil
}

func (c *memClock) close() error { return syscall.Munmap(c.buf) }

// tick takes one sample. The accesses are independent (the index comes
// from a xorshift register, not from the loaded value), as a batch of
// updates to unrelated vertices is.
func (c *memClock) tick() {
	x, mask := c.x, uint64(len(c.buf)-1)
	t0 := time.Now()
	for i := 0; i < tickSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[x&mask] += byte(x)
	}
	c.ticks = append(c.ticks, float64(time.Since(t0).Nanoseconds())/tickSteps)
	c.x = x
}

// burst takes a handful of samples: for the ends of a stage that is one
// opaque call.
func (c *memClock) burst() {
	for i := 0; i < 16; i++ {
		c.tick()
	}
}

// slowdown returns how many times slower than the reference the ticks
// since the last call ran, and starts a new interval. It is the median
// tick: one that the scheduler or a collection interrupted says nothing
// about memory.
func (c *memClock) slowdown() float64 {
	if len(c.ticks) == 0 {
		return 1
	}
	s := median(c.ticks) / refAccessNs
	c.ticks = c.ticks[:0]
	return s
}
