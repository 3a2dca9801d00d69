package main

import (
	"bytes"
	"container/heap"
	"runtime"
	"sync"
	"time"

	"vread/bench/stats"
)

// Host time on a shared VM drifts: the same pass ran 30 % slower for
// minutes at a time, which no run length averages out. So the benchmark
// times a fixed calibration kernel at every cell boundary and reports a
// cell's seconds scaled by how fast the host ran the kernel around it.
//
// The kernel is written here and imports nothing from the simulator, so no
// change to the simulator moves its time. It does the kinds of work the
// simulator's host time goes to: a discrete-event loop with goroutine
// handoffs between a scheduler and its processes, small allocations with a
// live heap the collector must mark, a priority queue and map updates; and
// byte patterns generated and compared in 64 KiB buffers, as storm reads
// are checked.

const (
	calProcs   = 16
	calEvents  = 4000
	calLive    = 1 << 12 // live allocations kept in a ring
	calBuffers = 12      // 64 KiB pattern buffers generated and compared

	// calEvery is the host time per kernel round: a boundary after a long
	// cell runs one more round per calEvery, so the host's speed across the
	// cell is sampled, not only at its end.
	calEvery = 150 * time.Millisecond

	// calNominal is a kernel round's time on the reference host, a 2-vCPU
	// x86-64 VM (Intel Xeon, Go 1.24). Scaled seconds are seconds on a host
	// that runs the kernel this fast.
	calNominal = 10 * time.Millisecond
)

type calEvent struct {
	at, seq int64
	proc    int
}

type calQueue []calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

var calSink int

// calRound runs the kernel once and returns its host wall time. One process
// runs at a time: the scheduler hands each event to its process and waits
// for the process to hand back its next event time.
func calRound() time.Duration {
	start := time.Now()
	var q calQueue
	resume := make([]chan int64, calProcs)
	yield := make(chan int64)
	live := make([][]byte, calLive)
	tally := make(map[int64]int, 1024)
	var done sync.WaitGroup
	for p := range resume {
		resume[p] = make(chan int64)
		done.Add(1)
		go func(p int, in chan int64) {
			defer done.Done()
			rng := uint64(p)*0x9e3779b97f4a7c15 + 1
			for now := range in {
				rng = rng*6364136223846793005 + 1442695040888963407
				b := make([]byte, 32+int(rng>>58)*16)
				b[0] = byte(now)
				live[int(rng>>20)%calLive] = b
				tally[int64(rng>>40)&1023]++
				yield <- now + 1 + int64(rng>>54)
			}
		}(p, resume[p])
	}
	seq := int64(0)
	for p := 0; p < calProcs; p++ {
		heap.Push(&q, calEvent{at: int64(p), seq: seq, proc: p})
		seq++
	}
	for n := 0; n < calEvents; n++ {
		e := heap.Pop(&q).(calEvent)
		resume[e.proc] <- e.at
		seq++
		heap.Push(&q, calEvent{at: <-yield, seq: seq, proc: e.proc})
	}
	for _, c := range resume {
		close(c)
	}
	done.Wait()
	for i := 0; i < calBuffers; i++ {
		a, b := make([]byte, 64<<10), make([]byte, 64<<10)
		calPattern(a, uint64(i))
		calPattern(b, uint64(i))
		if bytes.Equal(a, b) {
			calSink++
		}
	}
	calSink += len(tally) + len(live[0])
	return time.Since(start)
}

// calPattern fills b with a splitmix64 byte stream of seed.
func calPattern(b []byte, seed uint64) {
	for i := range b {
		x := seed + 0x9e3779b97f4a7c15*uint64(i>>3+1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		b[i] = byte(x >> (8 * uint(i&7)))
	}
}

// calibrate times the kernel at a cell boundary: one round, plus one per
// calEvery of host time since the pass's previous boundary. A collection
// first clears the finished cell's garbage, so the kernel's time does not
// depend on the simulator's heap.
func (ps *pass) calibrate() {
	if !ps.calibrated {
		return
	}
	rounds := 1
	if !ps.lastCal.IsZero() {
		rounds += int(time.Since(ps.lastCal) / calEvery)
	}
	runtime.GC()
	ts := make([]time.Duration, rounds)
	for i := range ts {
		ts[i] = calRound()
	}
	ps.refs = append(ps.refs, ts)
	ps.lastCal = time.Now()
}

// ref is the host's speed around cell i: the median kernel round at the
// boundaries before and after it.
func (ps *pass) ref(i int) time.Duration {
	var xs []float64
	for _, b := range ps.refs[i : i+2] {
		for _, t := range b {
			xs = append(xs, float64(t))
		}
	}
	return time.Duration(stats.Median(xs))
}
