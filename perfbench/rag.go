package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"dataai/internal/corpus"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/rag"
	"dataai/internal/vecdb"
)

// ragWorkload is the LLM4Data workload: a generated corpus ingested into
// a RAG pipeline over an HNSW index (the writes), then one closed-loop
// client answering every QA (the reads).
type ragWorkload struct {
	name   string
	corpus corpus.Config
	// questions is how many QAs of the corpus's pool a run asks.
	questions int
	dim       int
	// m and efConstruction configure the HNSW graph.
	m, efConstruction int
	topK              int
}

// The knowledge base of rag-hnsw is fixed: its corpus, the HNSW
// index's level draws and the simulated model's draws do not follow the
// workload seed, which draws the question stream only. Across corpus or
// index seeds the HNSW graph's quality is chaotic (at these settings
// exact-match accuracy reads 0.64-0.88 and answer latency 0.55-0.85 ms
// where an exact Flat index reads 0.95 on every corpus), so a seeded
// knowledge base would make the seed, not the code, set the spread
// between runs.
const (
	ragCorpusSeed = 1601
	ragIndexSeed  = 16
	ragModelSeed  = 11
)

// ragHNSW is the corpus scaled to about 10^4 chunks, 256-d hash
// embeddings, HNSW(M 16, efConstruction 128) and the large simulated
// model, asked a seeded sample of questions.
func ragHNSW(scale float64) ragWorkload {
	cfg := corpus.DefaultConfig(ragCorpusSeed)
	cfg.DocsPerDomainWeight = scaled(240, scale)
	cfg.QACount = 4 * scaled(3000, scale)
	cfg.MultiHopQACount = 0
	return ragWorkload{name: "rag-hnsw", corpus: cfg, questions: scaled(3000, scale),
		dim: 256, m: 16, efConstruction: 128, topK: 4}
}

// ragInputs are the generated inputs of one seed.
type ragInputs struct {
	docs []docstore.Document
	qas  []corpus.QA
}

// ragSetup makes the inputs (corpus generation, conversion to documents,
// the seeded question sample) and constructs a pipeline, repeatedly (see
// moreSetup), and returns them with the median set-up time.
func ragSetup(w ragWorkload, o options, res *result) (ragInputs, setupTime, error) {
	var in ragInputs
	var setupS, setupRef, genS []float64
	setup := startWatch()
	for i := 0; moreSetup(i, setup); i++ {
		in = ragInputs{}
		runtime.GC()
		span := res.begin("setup", "corpus.Generate", 0)
		sw := startWatch()
		g, err := corpus.NewGenerator(w.corpus)
		if err != nil {
			res.fail("setup", err)
			return in, setupTime{}, fmt.Errorf("corpus: %w", err)
		}
		c := g.Generate()
		gen := sw.seconds()
		res.end(span)
		in.docs = make([]docstore.Document, len(c.Docs))
		for j, d := range c.Docs {
			in.docs[j] = docstore.Document{ID: d.ID, Text: d.Text}
		}
		if len(c.QAs) < w.questions {
			res.fail("setup", fmt.Errorf("corpus has %d QAs, want %d", len(c.QAs), w.questions))
			return in, setupTime{}, fmt.Errorf("corpus too small")
		}
		rng := rand.New(rand.NewSource(o.seed))
		for _, k := range rng.Perm(len(c.QAs))[:w.questions] {
			in.qas = append(in.qas, c.QAs[k])
		}
		if _, err := newPipeline(w, newParts(w)); err != nil {
			res.fail("setup", err)
			return in, setupTime{}, err
		}
		secs := sw.seconds()
		setupS = append(setupS, secs)
		setupRef = append(setupRef, secs*res.host.factor(secs))
		genS = append(genS, gen)
		res.check("setup", len(in.docs) > 0 && len(in.qas) > 0, "corpus has %d docs and %d QAs", len(in.docs), len(in.qas))
	}
	if o.trace {
		res.set("corpus.gen_s", median(genS))
	}
	return in, setupTime{host: median(setupS), ref: median(setupRef)}, nil
}

// ragParts are the layers a pipeline is assembled from.
type ragParts struct {
	client llm.Client
	emb    embed.Embedder
	index  vecdb.Index
	hnsw   *vecdb.HNSW
}

// newParts builds the untimed layers for one pass.
func newParts(w ragWorkload) ragParts {
	h := vecdb.NewHNSW(w.dim, w.m, w.efConstruction, ragIndexSeed)
	return ragParts{
		client: llm.NewSimulator(llm.LargeModel(), ragModelSeed),
		emb:    embed.NewHashEmbedder(w.dim),
		index:  h,
		hnsw:   h,
	}
}

// newPipeline assembles a pipeline from parts.
func newPipeline(w ragWorkload, parts ragParts) (*rag.Pipeline, error) {
	return rag.New(parts.client, parts.emb, parts.index, rag.WithTopK(w.topK))
}

// ragPass is the outcome of one ingest-then-answer pass. Its times are
// in reference seconds when the pass ran with a scale hook, else in host
// seconds.
type ragPass struct {
	ingestS  float64
	answerS  float64
	answerMS []float64
	// hostS is the pass's ingest plus answer time in host seconds, and
	// answerHostMS each answer's time in host ms.
	hostS        float64
	answerHostMS []float64
	chunks       int
	correct      int
	digest       string
	distAdd      uint64
	distQuery    uint64
}

// passHooks, when set, run around each Ingest and Answer call of a
// traced pass. scale, when set, runs after every segment of calls
// (ingestSegment, answerSegment), outside the timed intervals, and returns the
// factor that turns the segment's host seconds into reference seconds
// (hostSpeed.factor).
type passHooks struct {
	beforeDoc, afterDoc       func()
	beforeAnswer, afterAnswer func()
	scale                     func(hostS float64) float64
}

// ingestSegment and answerSegment are how many Ingest or Answer calls
// one timed segment of a pass holds: about 0.4 s of ingest or 0.2 s of
// answers on the build VM, so the probes after each segment cost a few
// percent and leave the caches cold for few of the calls timed.
const (
	ingestSegment = 100
	answerSegment = 400
)

// endSegment closes a timed segment of a pass: it returns the segment's
// host seconds and the factor that turns them into reference seconds
// (1 without a scale hook).
func (h passHooks) endSegment(sw stopwatch) (hostS, factor float64) {
	hostS = sw.seconds()
	if h.scale == nil {
		return hostS, 1
	}
	return hostS, h.scale(hostS)
}

// runRAGPass ingests every document, one Ingest call each, then answers
// every QA rounds times over, recording failures under phases "ingest"
// and "answer". Every round must repeat round 0's answers and retrieved
// chunks; the digest and the accuracy count cover round 0.
func runRAGPass(w ragWorkload, in ragInputs, parts ragParts, res *result, hooks passHooks, rounds int) (ragPass, error) {
	var out ragPass
	p, err := newPipeline(w, parts)
	if err != nil {
		res.fail("ingest", err)
		return out, err
	}
	d0 := parts.hnsw.DistComps()
	failed := 0
	sw := startWatch()
	for i, d := range in.docs {
		if i > 0 && i%ingestSegment == 0 {
			secs, k := hooks.endSegment(sw)
			out.hostS += secs
			out.ingestS += secs * k
			sw = startWatch()
		}
		if hooks.beforeDoc != nil {
			hooks.beforeDoc()
		}
		err := p.Ingest([]docstore.Document{d})
		if hooks.afterDoc != nil {
			hooks.afterDoc()
		}
		if err != nil {
			failed++
			res.failures = append(res.failures, "ingest: "+err.Error())
		}
	}
	secs, k := hooks.endSegment(sw)
	out.hostS += secs
	out.ingestS += secs * k
	out.chunks = p.ChunkCount()
	d1 := parts.hnsw.DistComps()
	out.distAdd = d1 - d0
	res.ops("ingest", len(in.docs), failed)
	res.check("ingest", out.chunks > 0 && parts.index.Len() == out.chunks,
		"index holds %d vectors for %d chunks", parts.index.Len(), out.chunks)

	h := sha256.New()
	d := digester{w: h}
	d.int(out.chunks)
	failed = 0
	out.answerMS = make([]float64, 0, rounds*len(in.qas))
	// first holds each question's round-0 answer and retrieved chunk IDs,
	// which every later round must repeat.
	first := make([]string, len(in.qas))
	// endAnswers scales the answers since the last segment's end.
	segStart := 0
	endAnswers := func(all stopwatch) {
		secs, k := hooks.endSegment(all)
		out.hostS += secs
		out.answerS += secs * k
		for j := segStart; j < len(out.answerMS); j++ {
			out.answerHostMS = append(out.answerHostMS, out.answerMS[j])
			out.answerMS[j] *= k
		}
		segStart = len(out.answerMS)
	}
	all := startWatch()
	for i := range rounds * len(in.qas) {
		round, qa := i/len(in.qas), in.qas[i%len(in.qas)]
		if i > 0 && i%answerSegment == 0 {
			endAnswers(all)
			all = startWatch()
		}
		if hooks.beforeAnswer != nil {
			hooks.beforeAnswer()
		}
		sw := startWatch()
		a, err := p.Answer(qa.Question)
		ms := sw.ms()
		if hooks.afterAnswer != nil {
			hooks.afterAnswer()
		}
		out.answerMS = append(out.answerMS, ms)
		if err != nil {
			failed++
			res.failures = append(res.failures, "answer: "+err.Error())
			continue
		}
		if len(a.Retrieved) != w.topK {
			failed++
			res.failures = append(res.failures, fmt.Sprintf("answer: %q retrieved %d chunks, want %d", qa.Question, len(a.Retrieved), w.topK))
		}
		key := a.Text
		for _, r := range a.Retrieved {
			key += "\x00" + r.Chunk.ID
		}
		if round > 0 {
			if key != first[i%len(in.qas)] {
				failed++
				res.failures = append(res.failures, fmt.Sprintf("answer: %q round %d differs from round 0", qa.Question, round))
			}
			continue
		}
		first[i] = key
		if a.Text == qa.Answer {
			out.correct++
		}
		d.str(a.Text)
		d.int(len(a.Retrieved))
		for _, r := range a.Retrieved {
			d.str(r.Chunk.ID)
		}
	}
	endAnswers(all)
	out.distQuery = parts.hnsw.DistComps() - d1
	res.ops("answer", rounds*len(in.qas), failed)
	out.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// answerRounds is how many times an untraced pass answers every
// question. The answer latencies come from a few seconds of each pass;
// more rounds sample the host over more of the run.
const answerRounds = 2

// runRAG runs the RAG workload: the end-to-end measurement, or with
// o.trace the per-layer one.
func runRAG(w ragWorkload, o options, res *result) error {
	in, setup, err := ragSetup(w, o, res)
	if err != nil {
		return err
	}
	if o.trace {
		return ragTraced(w, res, in)
	}
	var ingestS, answerS, answerMS, hostS, answerHostMS []float64
	var first ragPass
	measure := startWatch()
	for pass := 0; pass < minPasses || measure.seconds() < o.seconds; pass++ {
		runtime.GC()
		out, err := runRAGPass(w, in, newParts(w), res, passHooks{scale: res.host.factor}, answerRounds)
		if err != nil {
			return err
		}
		// Every pass's answers count: they follow a full ingest, which
		// has warmed the heap up.
		answerMS = append(answerMS, out.answerMS...)
		answerHostMS = append(answerHostMS, out.answerHostMS...)
		if pass == 0 {
			first = out
		} else {
			ingestS = append(ingestS, out.ingestS)
			answerS = append(answerS, out.answerS)
			hostS = append(hostS, out.hostS)
			res.check("answer", out.digest == first.digest, "pass %d digest %s differs from pass 0 %s", pass, out.digest, first.digest)
		}
	}
	if err := res.host.failure(); err != nil {
		return err
	}
	res.digest = first.digest
	ingestMed := median(ingestS)
	chunksPerS := float64(first.chunks) / ingestMed
	accuracy := float64(first.correct) / float64(len(in.qas))
	p50 := median(answerMS)
	p99 := percentile(answerMS, 99)
	tail, tailPct, count := tailPercentile(answerMS)
	res.set("setup_s", setup.ref)
	res.set("wall_s", setup.ref+ingestMed+median(answerS)/answerRounds)
	res.set("throughput_per_s", chunksPerS)
	res.set("quality", accuracy)
	res.set("latency_p50_ms", p50)
	res.set("latency_p99_ms", p99)
	res.show("setup_s", setup.ref, "ref_s")
	res.show("rag.ingest_chunks_per_s", chunksPerS, "chunks/ref_s")
	res.show("rag.answer_ms_p50", p50, "ref_ms")
	res.show("rag.answer_ms_p99", p99, fmt.Sprintf("ref_ms (n=%d)", count))
	res.show(fmt.Sprintf("rag.answer_ms_p%g", tailPct), tail, fmt.Sprintf("ref_ms (highest percentile with >=10 samples beyond it, n=%d)", count))
	res.show("rag.accuracy", accuracy, fmt.Sprintf("ratio (%d of %d exact matches)", first.correct, len(in.qas)))
	res.note("host speed: %s", res.host.describe())
	res.note("corpus: %d docs, %d chunks, %d questions; passes %d (first warms up), ingest ref s per pass: median %.4f min %.4f max %.4f",
		len(in.docs), first.chunks, len(in.qas), len(ingestS)+1, ingestMed, slices.Min(ingestS), slices.Max(ingestS))
	res.note("host s: setup %.4f, ingest plus answers per pass %.4f; host ms per answer: p50 %.4f p99 %.4f",
		setup.host, median(hostS), median(answerHostMS), percentile(answerHostMS, 99))
	return nil
}
