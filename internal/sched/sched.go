// Package sched is the zero-goroutine agent scheduler. Agent activations
// become runnable tasks on per-shard run queues served by a small worker
// pool — at most one worker goroutine per GOMAXPROCS, not one per agent —
// with work stealing between shards. A parked agent costs no goroutine at
// all: it is pure heap state (a run-queue key plus a Resumer), woken by
// depositing its task back onto a queue. The kernel (internal/core) owns
// the durable half of parking — the continuation briefcase in the site
// cabinet — and implements Resumer; this package owns the volatile half:
// who is parked, what topic wakes them, and which worker runs them next.
//
// Workers are started lazily on the first submission and retire after an
// idle timeout, so a site that never wakes anything holds zero scheduler
// goroutines and a site under load holds a flat, bounded number.
package sched

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/folder"
)

// Task is one runnable agent activation.
type Task func()

// shardCount is the number of run-queue stripes, mirroring the agent
// registry's lock striping: tasks for different agents land on different
// queues and their submitters never touch the same mutex. Power of two so
// the modulo is a mask.
const shardCount = 16

// idleTimeout is how long a worker waits for work before retiring. Long
// enough that a steady trickle of wakeups reuses warm workers; short
// enough that test processes quiesce to zero scheduler goroutines.
const idleTimeout = 250 * time.Millisecond

// runShard is one stripe of the run queue: a FIFO of tasks under its own
// mutex.
type runShard struct {
	mu   sync.Mutex
	head int
	q    []Task
}

func (sh *runShard) push(t Task) {
	sh.mu.Lock()
	sh.q = append(sh.q, t)
	sh.mu.Unlock()
}

func (sh *runShard) pop() Task {
	sh.mu.Lock()
	if sh.head >= len(sh.q) {
		sh.mu.Unlock()
		return nil
	}
	t := sh.q[sh.head]
	sh.q[sh.head] = nil
	sh.head++
	if sh.head == len(sh.q) {
		sh.q = sh.q[:0]
		sh.head = 0
	}
	sh.mu.Unlock()
	return t
}

// worker is one pool goroutine's wake channel; buffered so a submitter
// never blocks handing work to an idle worker.
type worker struct {
	wake chan struct{}
}

// Stats is a snapshot of scheduler accounting.
type Stats struct {
	// Submitted counts tasks ever submitted.
	Submitted int64
	// Steals counts tasks a worker popped from a shard other than its own.
	Steals int64
	// Workers is the current worker-goroutine count (bounded by GOMAXPROCS).
	Workers int
	// Idle is how many of those workers are waiting for work.
	Idle int
	// Parked is the current parked-agent population.
	Parked int
}

// Scheduler runs tasks on a bounded worker pool and tracks parked agents.
// The zero value is not usable; create one with New.
type Scheduler struct {
	shards     [shardCount]runShard
	maxWorkers int

	mu       sync.Mutex
	idle     []*worker
	nWorkers int

	// counter tracks live work — queued/running tasks plus Spawned
	// goroutines — under a mutex+cond rather than a WaitGroup: spawned work
	// submits further work from goroutines the tracker does not own, so Add
	// could race a concurrent Wait under WaitGroup rules. Quiesce returns at
	// a moment the counter is zero. added counts work ever admitted.
	wmu    sync.Mutex
	wcond  *sync.Cond
	inWork int
	added  int64

	submitted int64 // under mu
	steals    int64 // under mu

	parked [shardCount]parkShard
	topics [shardCount]topicShard
}

// New creates a scheduler. maxWorkers bounds the pool; 0 means GOMAXPROCS.
func New(maxWorkers int) *Scheduler {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{maxWorkers: maxWorkers}
	for i := range s.parked {
		s.parked[i].entries = make(map[string]*parkEntry)
	}
	for i := range s.topics {
		s.topics[i].keys = make(map[string]map[string]struct{})
	}
	return s
}

func shardOf(key string) int { return int(folder.NameHash(key) & (shardCount - 1)) }

// Submit enqueues a task on the shard selected by key (an agent name, so
// one agent's activations stay on one queue) and ensures a worker will run
// it: an idle worker is woken, a new one is started while the pool is
// below its bound, and otherwise a busy worker picks the task up when it
// finishes its current one.
func (s *Scheduler) Submit(key string, t Task) {
	s.workAdd()
	s.shards[shardOf(key)].push(t)
	s.mu.Lock()
	s.submitted++
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		select {
		case w.wake <- struct{}{}:
		default:
		}
		return
	}
	if s.nWorkers < s.maxWorkers {
		s.nWorkers++
		slot := s.nWorkers % shardCount
		s.mu.Unlock()
		go s.run(slot)
		return
	}
	s.mu.Unlock()
}

// Spawn runs fn on its own goroutine, tracked so Quiesce can wait for it.
// It exists for work that blocks — network exchanges, failure-detector
// loops — which must not occupy a pool worker.
func (s *Scheduler) Spawn(fn func()) {
	s.workAdd()
	go func() {
		defer s.workDone()
		fn()
	}()
}

// Quiesce blocks until all submitted tasks and spawned goroutines have
// finished, and returns how much work the scheduler had admitted by then.
// Parked agents are at rest, not in flight, and do not count. Two
// Quiesces returning the same count bracket an interval in which the
// scheduler stayed idle.
func (s *Scheduler) Quiesce() int64 {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wcond == nil {
		s.wcond = sync.NewCond(&s.wmu)
	}
	for s.inWork > 0 {
		s.wcond.Wait()
	}
	return s.added
}

func (s *Scheduler) workAdd() {
	s.wmu.Lock()
	s.inWork++
	s.added++
	s.wmu.Unlock()
}

func (s *Scheduler) workDone() {
	s.wmu.Lock()
	s.inWork--
	if s.inWork == 0 && s.wcond != nil {
		s.wcond.Broadcast()
	}
	s.wmu.Unlock()
}

// Stats returns a snapshot of scheduler accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Submitted: s.submitted,
		Steals:    s.steals,
		Workers:   s.nWorkers,
		Idle:      len(s.idle),
	}
	s.mu.Unlock()
	st.Parked = s.ParkedCount()
	return st
}

// poll pops the next task, scanning the worker's own shard first and then
// stealing from the others.
func (s *Scheduler) poll(slot int) Task {
	if t := s.shards[slot].pop(); t != nil {
		return t
	}
	for i := 1; i < shardCount; i++ {
		if t := s.shards[(slot+i)&(shardCount-1)].pop(); t != nil {
			s.mu.Lock()
			s.steals++
			s.mu.Unlock()
			return t
		}
	}
	return nil
}

// exec runs one task and retires its work count.
func (s *Scheduler) exec(t Task) {
	defer s.workDone()
	t()
}

// removeIdle takes w off the idle stack; false means a submitter already
// popped it (and a wake signal is, or will be, in its channel).
func (s *Scheduler) removeIdle(w *worker) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeIdleLocked(w)
}

func (s *Scheduler) removeIdleLocked(w *worker) bool {
	for i, cand := range s.idle {
		if cand == w {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			return true
		}
	}
	return false
}

// retire atomically deregisters an idle worker and shrinks the pool count,
// so a concurrent Submit either still finds the worker idle (and wakes it)
// or already sees the smaller pool (and spawns a replacement) — never a
// half-retired worker that looks alive but will not serve.
func (s *Scheduler) retire(w *worker) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.removeIdleLocked(w) {
		return false
	}
	s.nWorkers--
	return true
}

// run is the worker loop: drain the queues (stealing across shards), then
// park on the idle stack; retire after idleTimeout without work so an
// inactive scheduler holds zero goroutines.
func (s *Scheduler) run(slot int) {
	w := &worker{wake: make(chan struct{}, 1)}
	timer := time.NewTimer(idleTimeout)
	defer timer.Stop()
	for {
		for t := s.poll(slot); t != nil; t = s.poll(slot) {
			s.exec(t)
		}
		s.mu.Lock()
		s.idle = append(s.idle, w)
		s.mu.Unlock()
		// Close the lost-wakeup window: a task enqueued between the final
		// poll above and the idle registration saw no idle worker to wake.
		if t := s.poll(slot); t != nil {
			// If a submitter popped us in the same window its signal sits
			// buffered in w.wake; the next wait drains it as a spurious
			// wakeup and rescans — never a lost task either way.
			s.removeIdle(w)
			s.exec(t)
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(idleTimeout)
		select {
		case <-w.wake:
		case <-timer.C:
			if !s.retire(w) {
				// A submitter popped us concurrently with the timeout; its
				// signal is in flight. Absorb it and serve one more round.
				<-w.wake
				continue
			}
			// Retired. A task enqueued after our last poll but before the
			// retirement saw a full pool with no idle workers and woke
			// nobody; now that the pool count is down, one final scan
			// catches it (anything later spawns a fresh worker).
			if t := s.poll(slot); t != nil {
				s.mu.Lock()
				s.nWorkers++
				s.mu.Unlock()
				s.exec(t)
				continue
			}
			return
		}
	}
}
