package main

import (
	"fmt"
	"runtime"

	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/obs"
	"dataai/internal/vecdb"
)

// The per-layer run of rag-hnsw times the embed, vecdb and llm layers by
// wrapping the interfaces rag.New accepts, so the program is measured
// through its public API only. Every wrapped call is timed and recorded
// as a span under the Ingest or Answer call it belongs to.

// layerClock accumulates one layer's calls and host time.
type layerClock struct {
	calls   int
	seconds float64
}

func (c layerClock) usPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return c.seconds * 1e6 / float64(c.calls)
}

// phaseClocks are the wrapped layers' clocks during one phase.
type phaseClocks struct {
	embed, add, search, complete layerClock
}

// tracedLayers is the shared state of the wrappers.
type tracedLayers struct {
	res            *result
	track          string
	parent         obs.SpanRef
	cur            *phaseClocks
	ingest, answer phaseClocks
	// flat receives every vector the index does, outside the timed
	// call, as the exact reference for recall.
	flat *vecdb.Flat
}

func (t *tracedLayers) timed(c *layerClock, name string, fn func()) {
	span := t.res.begin(t.track, name, t.parent)
	sw := startWatch()
	fn()
	c.seconds += sw.seconds()
	c.calls++
	t.res.end(span)
}

type timedEmbedder struct {
	embed.Embedder
	t *tracedLayers
}

func (e timedEmbedder) Embed(text string) (v []float32) {
	e.t.timed(&e.t.cur.embed, "embed.Embed", func() { v = e.Embedder.Embed(text) })
	return v
}

type timedIndex struct {
	vecdb.Index
	t *tracedLayers
}

func (x timedIndex) Add(id string, vec []float32) (err error) {
	x.t.timed(&x.t.cur.add, "vecdb.Add", func() { err = x.Index.Add(id, vec) })
	if err != nil {
		return err
	}
	return x.t.flat.Add(id, vec)
}

func (x timedIndex) Search(query []float32, k int) (rs []vecdb.Result, err error) {
	x.t.timed(&x.t.cur.search, "vecdb.Search", func() { rs, err = x.Index.Search(query, k) })
	return rs, err
}

type timedClient struct {
	llm.Client
	t *tracedLayers
}

func (c timedClient) Complete(req llm.Request) (resp llm.Response, err error) {
	c.t.timed(&c.t.cur.complete, "llm.Complete", func() { resp, err = c.Client.Complete(req) })
	return resp, err
}

// ragTraced is the per-layer run of the RAG workload: one untraced pass,
// then one pass through the timed wrappers under a CPU profile; the
// difference between the two is the tracing overhead.
func ragTraced(w ragWorkload, res *result, in ragInputs) error {
	runtime.GC()
	span := res.begin("rag", "pass (untraced)", 0)
	plain, err := runRAGPass(w, in, newParts(w), res, passHooks{}, 1)
	res.end(span)
	if err != nil {
		return err
	}
	res.digest = plain.digest

	t := &tracedLayers{res: res, flat: vecdb.NewFlat(w.dim)}
	base := newParts(w)
	parts := ragParts{
		client: timedClient{Client: base.client, t: t},
		emb:    timedEmbedder{Embedder: base.emb, t: t},
		index:  timedIndex{Index: base.index, t: t},
		hnsw:   base.hnsw,
	}
	enter := func(track, name string, clocks *phaseClocks) func() {
		return func() {
			t.track, t.cur = track, clocks
			t.parent = res.begin(track, name, 0)
		}
	}
	hooks := passHooks{
		beforeDoc:    enter("ingest", "rag.Ingest", &t.ingest),
		afterDoc:     func() { res.end(t.parent) },
		beforeAnswer: enter("answer", "rag.Answer", &t.answer),
		afterAnswer:  func() { res.end(t.parent) },
	}
	runtime.GC()
	span = res.begin("rag", "pass (traced, cpu profile)", 0)
	var traced ragPass
	profile, err := cpuProfile(func() error {
		var err error
		traced, err = runRAGPass(w, in, parts, res, hooks, 1)
		return err
	})
	res.end(span)
	if err != nil {
		return err
	}
	res.check("answer", traced.digest == plain.digest, "traced pass digest %s differs from untraced %s", traced.digest, plain.digest)
	if err := foldProfile(res, profile); err != nil {
		return err
	}
	plainS := plain.ingestS + plain.answerS
	res.set("bench.trace_overhead_frac", (traced.ingestS+traced.answerS-plainS)/plainS)

	docs, answers := float64(len(in.docs)), float64(len(in.qas))
	ing, ans := t.ingest, t.answer
	embedAll := layerClock{calls: ing.embed.calls + ans.embed.calls, seconds: ing.embed.seconds + ans.embed.seconds}
	res.set("embed.us_per_call", embedAll.usPerCall())
	res.set("vecdb.add_us_per_vec", ing.add.usPerCall())
	res.set("vecdb.dist_per_add", float64(traced.distAdd)/float64(max(ing.add.calls, 1)))
	res.set("docstore.chunk_us_per_doc", (traced.ingestS-ing.embed.seconds-ing.add.seconds)*1e6/docs)
	res.set("vecdb.search_us_per_query", ans.search.usPerCall())
	res.set("vecdb.dist_per_query", float64(traced.distQuery)/float64(max(ans.search.calls, 1)))
	res.set("llm.complete_us_per_call", ans.complete.usPerCall())
	var answerS float64
	for _, ms := range traced.answerMS {
		answerS += ms / 1000
	}
	res.set("rag.answer_other_us", (answerS-ans.embed.seconds-ans.search.seconds-ans.complete.seconds)*1e6/answers)

	recall, err := recallAtK(w, base, t.flat, in)
	if err != nil {
		res.fail("recall", err)
		return err
	}
	res.set("vecdb.recall_at_k", recall)
	res.note("traced pass: %d docs, %d chunks, %d answers; %d embed, %d add, %d search, %d complete calls",
		len(in.docs), traced.chunks, len(in.qas), embedAll.calls, ing.add.calls, ans.search.calls, ans.complete.calls)
	return nil
}

// recallAtK is the mean recall of the HNSW index's top-k against an
// exact Flat index over the same vectors, for every QA's query vector.
func recallAtK(w ragWorkload, parts ragParts, flat *vecdb.Flat, in ragInputs) (float64, error) {
	var sum float64
	for _, qa := range in.qas {
		q := parts.emb.Embed(qa.Question)
		got, err := parts.hnsw.Search(q, w.topK)
		if err != nil {
			return 0, fmt.Errorf("hnsw search: %w", err)
		}
		want, err := flat.Search(q, w.topK)
		if err != nil {
			return 0, fmt.Errorf("flat search: %w", err)
		}
		sum += vecdb.Recall(got, want)
	}
	return sum / float64(len(in.qas)), nil
}
