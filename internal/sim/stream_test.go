package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// streamProgram runs a seeded event program on e in which n "arrivals"
// with non-decreasing times are delivered either by one Stream call
// (lazy) or by n up-front AtArg calls (the reference), and returns the
// firing log. The program is built to stress the places where lazy
// injection could diverge from up-front scheduling:
//
//   - arrival times carry same-instant ties, exact bucket multiples and
//     gaps that cross the wheel horizon into the overflow heap;
//   - the arrivals are scheduled from inside a handler at a nonzero
//     clock, so the first few clamp to Now;
//   - other events already queued at the arrivals' instants, and every
//     arrival handler schedules follow-ups at now, a fraction later, or
//     past the horizon, so handler-allocated sequence numbers interleave
//     with the stream's reserved ones.
func streamProgram(e *Engine, seed int64, n int, lazy bool) []fireRec {
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	clock := 0.0
	for i := range times {
		switch rng.Intn(5) {
		case 0: // same instant as the previous arrival
		case 1:
			clock += rng.Float64() * 0.5
		case 2:
			clock += float64(rng.Intn(3)) * calWidth
		case 3:
			clock += rng.Float64() * 20
		case 4:
			clock += calBuckets*calWidth + rng.Float64()*3000 // past the horizon
		}
		times[i] = clock
	}
	// Draws made while the program runs come from their own stream, so
	// the trace above is the same under both schedulers.
	prog := rand.New(rand.NewSource(seed + 1))
	var log []fireRec
	nextID := n
	var follow func(t float64, d int)
	follow = func(t float64, d int) {
		id := nextID
		nextID++
		e.At(t, func(now float64) {
			log = append(log, fireRec{id, now})
			if d == 0 {
				return
			}
			for j := prog.Intn(3); j > 0; j-- {
				var delta float64
				switch prog.Intn(4) {
				case 0:
					delta = 0
				case 1:
					delta = prog.Float64() * 2
				case 2:
					delta = float64(prog.Intn(4)) * calWidth
				case 3:
					delta = calBuckets*calWidth + prog.Float64()*500
				}
				follow(now+delta, d-1)
			}
		})
	}
	arrive := func(now float64, i uint64) {
		log = append(log, fireRec{int(i), now})
		if prog.Intn(2) == 0 {
			follow(now+float64(prog.Intn(3))*prog.Float64(), 2)
		}
	}
	// Competing events at some of the arrivals' exact instants, queued
	// before the arrivals are.
	for k := 0; k < n/4; k++ {
		follow(times[rng.Intn(n)], 1)
	}
	start := times[n/8] // the first eighth of the trace clamps to Now
	e.At(start, func(float64) {
		if lazy {
			e.Stream(n, func(i int) float64 { return times[i] }, arrive)
			return
		}
		for i := range times {
			e.AtArg(times[i], arrive, uint64(i))
		}
	})
	e.Run()
	return log
}

func TestStreamMatchesUpFrontScheduling(t *testing.T) {
	engines := []struct {
		name string
		mk   func() *Engine
	}{{"calendar", NewEngine}, {"heap", newHeapEngine}}
	for _, eng := range engines {
		for seed := int64(0); seed < 60; seed++ {
			n := 50 + int(seed)*7
			got := streamProgram(eng.mk(), seed, n, true)
			want := streamProgram(eng.mk(), seed, n, false)
			if !reflect.DeepEqual(got, want) {
				m := min(len(got), len(want))
				for i := 0; i < m; i++ {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d: firing diverges at %d: Stream %+v, AtArg %+v",
							eng.name, seed, i, got[i], want[i])
					}
				}
				t.Fatalf("%s seed %d: firing logs differ in length: Stream %d, AtArg %d",
					eng.name, seed, len(got), len(want))
			}
		}
	}
}

func TestStreamKeepsOneItemQueued(t *testing.T) {
	e := NewEngine()
	const n = 10_000
	maxPending := 0
	fired := 0
	e.Stream(n, func(i int) float64 { return float64(i / 3) }, func(now float64, i uint64) {
		if int(i) != fired {
			t.Fatalf("item %d fired in position %d", i, fired)
		}
		fired++
		maxPending = max(maxPending, e.Pending())
	})
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stream = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != n || maxPending > 1 {
		t.Fatalf("fired %d of %d, max pending %d (want <= 1)", fired, n, maxPending)
	}
	e.Stream(0, nil, nil) // an empty stream schedules nothing
	if e.Pending() != 0 {
		t.Fatalf("empty Stream queued %d events", e.Pending())
	}
}

func TestDrainedBucketReleasesBurstCapacity(t *testing.T) {
	e := NewEngine()
	q := e.queue.(*calQueue)
	const burst = 4 * calKeepCap
	var got []int
	// A burst at one instant, plus a same-instant event scheduled by the
	// burst's last handler after the bucket has drained, and a small
	// burst later whose bucket keeps its array.
	for i := 0; i < burst; i++ {
		i := i
		e.At(7.5, func(now float64) {
			got = append(got, i)
			if i == burst-1 {
				e.At(now, func(float64) { got = append(got, burst) })
			}
		})
	}
	for i := 0; i < 8; i++ {
		i := i
		e.At(9.25, func(float64) { got = append(got, burst+1+i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) || len(got) != burst+9 {
		t.Fatalf("burst fired out of order or incompletely: %d events", len(got))
	}
	for i := range q.buckets {
		if c := cap(q.buckets[i]); c > calKeepCap {
			t.Errorf("bucket %d keeps capacity %d after draining (cap %d)", i, c, calKeepCap)
		}
	}
	if c := cap(q.buckets[9]); c == 0 {
		t.Errorf("a small bucket gave back its array; only bursts past %d should", calKeepCap)
	}
}
