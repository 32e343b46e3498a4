package main

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// The host this benchmark was built on is a share of a machine whose
// speed moves by up to 2x over minutes, and by tens of percent from one
// second to the next, as its neighbours' load changes, with nothing the
// guest can see (no steal time, no hardware counters). Raw host times
// measure that drift as much as the program. So every host-timed
// end-to-end metric is in reference seconds: each timed interval (a
// set-up, a routed call, a segment of an ingest or of the answers) is
// scaled by how much slower than nominal a fixed reference job ran just
// before and just after it (see factor).
//
// The reference job lives in this file and calls no program code, so a
// change to the program cannot move it. It runs in a helper process (this
// binary with -probe), so its memory counts neither in the run's peak RSS
// nor in the Go heap whose size paces the program's garbage collector.
// Its mix follows the two halves of the benchmark: a small discrete-event
// loop (a binary-heap event queue, an argmin over instances, a map keyed
// by request ID and an allocation per event, like the simulator), sorting
// records, open-addressing table updates, and inner products over
// 256-wide rows picked pseudo-randomly from an 8 MB table (the HNSW
// index's work).

// refNominalS is the reference job's time on the reference host (the
// 2-vCPU VM of README.md, at its fast end): a measured second is worth
// one reference second when the reference job takes exactly this long.
const refNominalS = 0.013

const (
	refDim      = 256
	refRows     = 4096 // 8 MB of rows
	refDots     = 6000
	refTableLog = 17
	refKeys     = 50_000
	refRequests = 2000
	refEvents   = 12_000
	refRecords  = 30_000
)

// refState is the reference job's long-lived memory.
type refState struct {
	rows    []float64
	table   []uint64
	records []refRecord
	sink    uint64
}

type refRecord struct {
	key uint64
	at  float64
}

func newRefState() *refState {
	s := &refState{
		rows:    make([]float64, refRows*refDim),
		table:   make([]uint64, 1<<refTableLog),
		records: make([]refRecord, refRecords),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range s.rows {
		x = x*6364136223846793005 + 1442695040888963407
		s.rows[i] = float64(x>>40)/float64(1<<24) - 0.5
	}
	return s
}

// refEvent is one event of the reference job's event loop.
type refEvent struct {
	at    float64
	step  int
	id    string
	state []float64
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// run does the reference job once.
func (s *refState) run() {
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}

	// Event loop: each request takes a few steps, each routed to the
	// least-loaded of 64 instances.
	q := &refQueue{}
	for i := range refRequests {
		heap.Push(q, &refEvent{at: float64(next()>>40) / 1e3, id: "r" + strconv.Itoa(i)})
	}
	busy := make([]float64, 64)
	done := make(map[string]float64, refRequests)
	for n := 0; q.Len() > 0 && n < refEvents; n++ {
		e := heap.Pop(q).(*refEvent)
		best := 0
		for j := range busy {
			if busy[j] < busy[best] {
				best = j
			}
		}
		busy[best] += float64(next()>>50) / 100
		done[e.id] += e.at
		if e.step < 5 {
			heap.Push(q, &refEvent{at: e.at + busy[best], step: e.step + 1, id: e.id, state: make([]float64, 4)})
		}
	}

	for i := range s.records {
		v := next()
		s.records[i] = refRecord{key: v >> 20, at: float64(v>>44) / 7}
	}
	sort.Slice(s.records, func(i, j int) bool { return s.records[i].at < s.records[j].at })

	clear(s.table)
	mask := uint64(len(s.table) - 1)
	for range refKeys {
		k := next() | 1
		for h := (k * 0x9e3779b97f4a7c15) >> (64 - refTableLog); ; h = (h + 1) & mask {
			if s.table[h] == 0 || s.table[h] == k {
				s.table[h] = k
				break
			}
		}
	}

	var acc float64
	for range refDots {
		v := next()
		a := s.rows[int(v>>33)%refRows*refDim:][:refDim]
		b := s.rows[int(v>>13)%refRows*refDim:][:refDim]
		var d float64
		for j := range a {
			d += a[j] * b[j]
		}
		acc += d
	}
	s.sink += uint64(len(done)) + s.records[len(s.records)/2].key + s.table[x&mask] + math.Float64bits(acc)
}

// serveProbes is the helper process (-probe): once its memory is set
// up it writes one byte to out, then it runs the reference job once per
// byte read from in and writes the job's host seconds to out as 8 bytes,
// until in closes.
func serveProbes(in io.Reader, out io.Writer) error {
	s := newRefState()
	s.run() // fault the memory in
	if _, err := out.Write([]byte{1}); err != nil {
		return err
	}
	r := bufio.NewReader(in)
	var buf [8]byte
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		sw := startWatch()
		s.run()
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sw.seconds()))
		if _, err := out.Write(buf[:]); err != nil {
			return err
		}
	}
}

// probeSpan is the interval length one probe stands for: after an
// interval of d seconds, factor takes about d/probeSpan probes (at least
// one, at most maxProbes) and uses their median, so a long interval is
// not scaled by a single noisy probe.
const (
	probeSpan = 0.5
	maxProbes = 5
)

// hostSpeed drives the probe helper and keeps its timings.
type hostSpeed struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    io.ReadCloser
	probeS []float64
	// edge is the median probe time at the end of the last interval.
	edge float64
	err  error
}

// startHostSpeed starts the probe helper and waits until it is ready,
// so its set-up does not overlap the run's.
func startHostSpeed() (*hostSpeed, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostSpeed{cmd: cmd, in: in, out: out}
	var ready [1]byte
	if _, err := io.ReadFull(out, ready[:]); err != nil {
		_ = h.stop()
		return nil, fmt.Errorf("probe helper not ready: %w", err)
	}
	return h, nil
}

// stop ends the helper and waits for it.
func (h *hostSpeed) stop() error {
	if h == nil || h.cmd == nil {
		return nil
	}
	_ = h.in.Close()
	err := h.cmd.Wait()
	h.cmd = nil
	return err
}

// factor probes the host and returns the factor that turns the hostS
// host seconds of an interval that ended just before the call into
// reference seconds: refNominalS over the mean of the probe times at the
// interval's two edges. The end edge is the median of the probes taken
// now (see probeSpan); the start edge is the previous call's, taken just
// before the interval began. Call it right after every timed interval
// (and after every set-up), outside it, so each interval lies between
// two edges. On a nil hostSpeed (traced runs) it is 1. A failed probe is
// kept in h.err, ends the probing and returns 1.
func (h *hostSpeed) factor(hostS float64) float64 {
	if h == nil || h.err != nil {
		return 1
	}
	n := min(max(1, int(hostS/probeSpan+0.5)), maxProbes)
	edge := make([]float64, n)
	var buf [8]byte
	for i := range edge {
		if _, err := h.in.Write([]byte{1}); err != nil {
			h.err = err
			return 1
		}
		if _, err := io.ReadFull(h.out, buf[:]); err != nil {
			h.err = err
			return 1
		}
		edge[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	h.probeS = append(h.probeS, edge...)
	end := median(edge)
	around := end
	if h.edge > 0 {
		around = (h.edge + end) / 2
	}
	h.edge = end
	return refNominalS / around
}

// failure reports a failed probe; the run's reference times are then
// not to be trusted.
func (h *hostSpeed) failure() error {
	if h != nil && h.err != nil {
		return fmt.Errorf("host speed probe: %w", h.err)
	}
	return nil
}

// describe summarises the probes for the report.
func (h *hostSpeed) describe() string {
	if h == nil || len(h.probeS) == 0 {
		return "no probes"
	}
	return fmt.Sprintf("%d probes of the reference job, median %.2f ms (min %.2f max %.2f), nominal %.2f ms",
		len(h.probeS), median(h.probeS)*1e3, slices.Min(h.probeS)*1e3, slices.Max(h.probeS)*1e3, refNominalS*1e3)
}
