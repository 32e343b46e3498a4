// Package dataai is the public facade of the Data+AI library — a Go
// implementation of the architecture in "Data+AI: LLM4Data and Data4LLM"
// (Li, Wang, Zhang, Wang; SIGMOD 2025).
//
// The library has two faces, mirroring the paper's two directions:
//
// LLM4Data — using (simulated) LLMs to process data:
//
//	client := dataai.NewSimulatedLLM(dataai.LargeModel(), 42)
//	emb := dataai.NewEmbedder(dataai.DefaultEmbedDim)
//	pipeline, _ := dataai.NewRAG(client, emb, dataai.NewFlatIndex(emb.Dim()))
//	_ = pipeline.Ingest(docs)
//	answer, _ := pipeline.Answer("What is the ceo of Zorvex Fi?")
//
// Data4LLM — using data management to optimize the LLM lifecycle:
//
//	clean, report := dataai.ApplyFilters(docs, dataai.DefaultHeuristicFilter())
//	mh, _ := dataai.NewMinHasher(64, 16, 3, 1)
//	kept, _ := mh.Dedup(clean, 0.6)
//	lm := dataai.NewNGramLM()
//	lm.TrainAll(kept)
//
// The facade exports one front door per subsystem: the entry points the
// examples and the root-package tests drive. Each subsystem's full API
// lives in its package under internal/; the experiment suite in
// bench_test.go and cmd/benchall exercises all of it and regenerates
// the paper's qualitative claims end to end.
package dataai

import (
	"dataai/internal/core"
	"dataai/internal/corpus"
	"dataai/internal/dataprep"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/lake"
	"dataai/internal/llm"
	"dataai/internal/llm/ngram"
	"dataai/internal/prompting"
	"dataai/internal/rag"
	"dataai/internal/serving"
	"dataai/internal/training"
	"dataai/internal/vecdb"
	"dataai/internal/workload"
)

// DefaultEmbedDim is the conventional embedding dimensionality.
const DefaultEmbedDim = embed.DefaultDim

// --- Simulated LLM substrate (package llm) ---

// LLMClient completes prompts; implementations include the simulator,
// response cache, and model cascade.
type LLMClient = llm.Client

// LLMModel describes a simulated model tier.
type LLMModel = llm.Model

// LLMRequest is a completion call.
type LLMRequest = llm.Request

// LargeModel and SmallModel are the built-in model tiers.
var (
	LargeModel = llm.LargeModel
	SmallModel = llm.SmallModel
)

// NewSimulatedLLM builds the deterministic LLM simulator.
func NewSimulatedLLM(m LLMModel, seed uint64) *llm.Simulator { return llm.NewSimulator(m, seed) }

// NewNGramLM builds the statistical language model used for perplexity
// scoring and Markov synthesis.
func NewNGramLM() *ngram.Model { return ngram.New() }

// --- Embeddings and vector search (packages embed, vecdb) ---

// Embedder converts text to vectors.
type Embedder = embed.Embedder

// NewEmbedder builds the deterministic hash embedder.
func NewEmbedder(dim int) *embed.HashEmbedder { return embed.NewHashEmbedder(dim) }

// VectorIndex is the vector database contract.
type VectorIndex = vecdb.Index

// NewFlatIndex builds the exact brute-force vector index.
func NewFlatIndex(dim int) *vecdb.Flat { return vecdb.NewFlat(dim) }

// --- Documents and corpora (packages docstore, corpus) ---

// Document is a stored source document.
type Document = docstore.Document

// CorpusConfig controls synthetic corpus generation; Corpus is the result.
type (
	CorpusConfig = corpus.Config
	Corpus       = corpus.Corpus
)

// DefaultCorpusConfig returns the standard four-domain configuration.
var DefaultCorpusConfig = corpus.DefaultConfig

// GenerateCorpus builds a synthetic corpus with known ground truth.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) {
	g, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// --- LLM4Data (packages rag, prompting, lake) ---

// RAG is the retrieval-augmented generation pipeline.
type RAG = rag.Pipeline

// NewRAG assembles a RAG pipeline.
func NewRAG(client LLMClient, e Embedder, idx VectorIndex, opts ...rag.Option) (*RAG, error) {
	return rag.New(client, e, idx, opts...)
}

// RAGWithTopK sets how many chunks NewRAG's pipeline retrieves.
var RAGWithTopK = rag.WithTopK

// CompressContext trims retrieved context to a token budget, keeping
// the sentences most relevant to the question (§2.2.1).
var CompressContext = prompting.Compress

// BuildLake constructs a multi-modal data lake from a corpus.
var BuildLake = lake.BuildFromCorpus

// NewLakePlanner wires the SYMPHONY/CAESURA-style planner that compiles
// natural-language queries into tool pipelines over a lake.
var NewLakePlanner = lake.NewPlanner

// --- Data4LLM (packages dataprep, training, serving, workload) ---

// Cleaning and dedup entry points.
var (
	ApplyFilters           = dataprep.ApplyFilters
	DefaultHeuristicFilter = dataprep.DefaultHeuristicFilter
	FitClassifierFilter    = dataprep.FitClassifierFilter
	NewMinHasher           = dataprep.NewMinHasher
)

// TrainModelConfig describes a model for the training-memory simulator.
type TrainModelConfig = training.ModelConfig

// StrategyZeRO3 shards parameters, gradients and optimizer state.
const StrategyZeRO3 = training.ZeRO3

// MemoryPerWorker is the per-worker training memory under a strategy.
var MemoryPerWorker = training.MemoryPerWorker

// ContinuousOpts configures a continuous-batching serving run.
type ContinuousOpts = serving.ContinuousOpts

// Serving entry points.
var (
	DefaultGPU    = serving.DefaultGPU
	RunContinuous = serving.RunContinuous
	GenerateTrace = workload.Generate
	DefaultTrace  = workload.DefaultTrace
)

// --- Core orchestration (package core) ---

// Stage is one step of a core pipeline.
type Stage = core.Stage

// Orchestration entry points: NewHub routes across registered models,
// NewCorePipeline composes prep stages, NewFlywheel runs the §2.4
// feedback loop.
var (
	NewHub          = core.NewHub
	NewCorePipeline = core.NewPipeline
	NewFlywheel     = core.NewFlywheel
)
