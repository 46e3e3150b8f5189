// Golden fixture for the lockhold check. Lines carrying a want marker
// must produce a diagnostic whose message contains the quoted
// substring; every other line must stay silent.
package lockholdfix

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	c  chan int
	f  *os.File
}

func (s *S) SleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want:lockhold "time.Sleep while holding s.mu"
	s.mu.Unlock()
}

func (s *S) DeferredUnlockSleep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want:lockhold "time.Sleep while holding s.mu"
}

func (s *S) SendUnderLock(v int) {
	s.mu.Lock()
	s.c <- v // want:lockhold "channel send while holding s.mu"
	s.mu.Unlock()
}

func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	v := <-s.c // want:lockhold "channel receive while holding s.mu"
	s.mu.Unlock()
	return v
}

func (s *S) SelectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want:lockhold "select (blocking) while holding s.mu"
	case <-s.c:
	}
}

func (s *S) WaitGroupUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want:lockhold "(*sync.WaitGroup).Wait while holding s.mu"
	s.mu.Unlock()
}

// syncLocked blocks transitively: callers holding s.mu inherit the
// finding through the same-package closure.
func (s *S) syncLocked() error {
	return s.f.Sync()
}

func (s *S) FlushUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked() // want:lockhold "call to syncLocked"
}

// UnlockFirst releases before blocking: no finding.
func (s *S) UnlockFirst() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// EarlyReturn blocks only on the branch that already unlocked: the
// must-hold intersection keeps it silent.
func (s *S) EarlyReturn(b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	s.mu.Unlock()
}

// SelectWithDefault never parks: no finding.
func (s *S) SelectWithDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.c:
	default:
	}
}

type W struct {
	mu   sync.Mutex
	cond *sync.Cond
}

// CondWait is the sanctioned way to block under a mutex — Wait releases
// it while parked — so it stays silent.
func (w *W) CondWait() {
	w.mu.Lock()
	w.cond.Wait()
	w.mu.Unlock()
}

// GoroutineBody is a fresh context: the closure does not hold the
// spawner's lock.
func (s *S) GoroutineBody() {
	s.mu.Lock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
	s.mu.Unlock()
}

// The chain h <- g <- f: f calls g before its own sleep, so f is
// described by the call, its first blocking op in source order, whatever
// order the closure visits the functions in.
func h() { time.Sleep(time.Millisecond) }

func g() { h() }

func f() {
	g()
	time.Sleep(time.Millisecond)
}

func (s *S) ChainUnderLock() {
	s.mu.Lock()
	f() // want:lockhold "call to f (blocks: call to g (blocks: call to h (blocks: time.Sleep))) while holding s.mu"
	s.mu.Unlock()
}

// Locks are reported by their expression, which lockorder's canonical
// names would not tell apart: a read lock, one shard of a mutex slice,
// and a function-local mutex that lockorder skips.
type N struct {
	rw  sync.RWMutex
	mus []sync.Mutex
	c   chan int
}

func (s *N) ReadLockSleep() {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want:lockhold "time.Sleep while holding s.rw"
	s.rw.RUnlock()
}

func (s *N) ShardSend(i, v int) {
	s.mus[i].Lock()
	s.c <- v // want:lockhold "channel send while holding s.mus[i]"
	s.mus[i].Unlock()
}

func (s *N) LocalSend(v int) {
	var mu sync.Mutex
	mu.Lock()
	s.c <- v // want:lockhold "channel send while holding mu"
	mu.Unlock()
}
