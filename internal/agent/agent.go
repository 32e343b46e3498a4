// Package agent implements the multi-step agent machinery of §2.2.1: a
// tool registry, sequential plan execution with output piping, per-step
// self-reflection, and bounded retries.
//
// The paper lists the agent challenges as "understanding the environment,
// tool invocation, breaking down tasks into multiple steps, reasoning
// through these steps, and self-reflection". Task decomposition lives with
// the callers that own the domain (package lake's planner); this package
// owns the execution half: invoking tools, threading intermediate results,
// noticing bad step outputs, and retrying.
package agent

import (
	"errors"
	"fmt"
	"strings"

	"dataai/internal/llm"
	"dataai/internal/resilient"
)

// Errors callers branch on.
var (
	// ErrUnknownTool indicates a plan step naming an unregistered tool.
	ErrUnknownTool = errors.New("agent: unknown tool")
	// ErrStepFailed indicates a step that kept failing after retries.
	ErrStepFailed = errors.New("agent: step failed")
	// ErrNoSteps indicates an empty plan.
	ErrNoSteps = errors.New("agent: empty plan")
)

// errReflectionReject marks an attempt whose output failed the
// self-reflection check (as opposed to the tool itself erroring).
var errReflectionReject = errors.New("agent: output rejected by reflection")

// Tool is an invocable capability (retriever, SQL runner, extractor, ...).
type Tool interface {
	// Name is the registry key.
	Name() string
	// Description is surfaced to planners choosing among tools.
	Description() string
	// Invoke runs the tool on input and returns its output.
	Invoke(input string) (string, error)
}

// ToolFunc adapts a function to the Tool interface.
type ToolFunc struct {
	ToolName string
	Desc     string
	Fn       func(input string) (string, error)
}

// Name implements Tool.
func (t ToolFunc) Name() string { return t.ToolName }

// Description implements Tool.
func (t ToolFunc) Description() string { return t.Desc }

// Invoke implements Tool.
func (t ToolFunc) Invoke(input string) (string, error) { return t.Fn(input) }

// Action is one planned step. Occurrences of "$prev" in Input are replaced
// by the previous step's output; "$q" by the original task input.
type Action struct {
	Tool  string
	Input string
}

// Step records one executed action.
type Step struct {
	Action  Action
	Input   string // input after substitution
	Output  string
	Retries int
	Err     string
}

// Trace is the record of a plan execution.
type Trace struct {
	Steps  []Step
	Answer string
	// Failed reports whether execution aborted before the final step.
	Failed bool
}

// Option configures an Agent.
type Option func(*Agent)

// WithMaxRetries sets per-step retries after a reflection failure
// (default 1).
func WithMaxRetries(n int) Option { return func(a *Agent) { a.retrier.MaxRetries = n } }

// WithoutReflection disables the self-reflection check; steps are
// accepted as-is (the ablation arm of E5).
func WithoutReflection() Option { return func(a *Agent) { a.reflect = false } }

// Agent executes plans over a tool registry.
type Agent struct {
	tools   map[string]Tool
	order   []string
	retrier resilient.Retrier
	reflect bool
}

// New returns an agent with the given tools registered.
func New(tools []Tool, opts ...Option) (*Agent, error) {
	a := &Agent{tools: make(map[string]Tool, len(tools)), retrier: resilient.Retrier{MaxRetries: 1}, reflect: true}
	for _, t := range tools {
		if t.Name() == "" {
			return nil, fmt.Errorf("agent: tool with empty name")
		}
		if _, dup := a.tools[t.Name()]; dup {
			return nil, fmt.Errorf("agent: duplicate tool %q", t.Name())
		}
		a.tools[t.Name()] = t
		a.order = append(a.order, t.Name())
	}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// Tools lists registered tool names in registration order.
func (a *Agent) Tools() []string { return append([]string(nil), a.order...) }

// Describe renders the tool catalog for planner prompts.
func (a *Agent) Describe() string {
	var b strings.Builder
	for _, name := range a.order {
		fmt.Fprintf(&b, "- %s: %s\n", name, a.tools[name].Description())
	}
	return b.String()
}

// Run executes the plan for the task input. The final step's output is the
// answer. A step whose output fails reflection is retried up to the
// configured limit; if it still fails, execution aborts with ErrStepFailed
// and the trace records how far it got.
func (a *Agent) Run(task string, plan []Action) (Trace, error) {
	if len(plan) == 0 {
		return Trace{Failed: true}, ErrNoSteps
	}
	var tr Trace
	prev := ""
	for i, act := range plan {
		tool, ok := a.tools[act.Tool]
		if !ok {
			tr.Failed = true
			return tr, fmt.Errorf("%w: %q (step %d)", ErrUnknownTool, act.Tool, i)
		}
		input := strings.ReplaceAll(act.Input, "$prev", prev)
		input = strings.ReplaceAll(input, "$q", task)

		step := Step{Action: act, Input: input}
		var out string
		retries, _, err := a.retrier.Do(input, func(int) error {
			var ierr error
			out, ierr = tool.Invoke(input)
			if ierr != nil {
				return ierr
			}
			if a.reflect && !a.acceptable(out) {
				return errReflectionReject
			}
			return nil
		})
		step.Retries = retries
		if err != nil {
			if errors.Is(err, errReflectionReject) {
				err = fmt.Errorf("%w: step %d output rejected by reflection", ErrStepFailed, i)
			} else {
				err = fmt.Errorf("%w: step %d: %v", ErrStepFailed, i, err)
			}
			step.Output = out
			step.Err = err.Error()
			tr.Steps = append(tr.Steps, step)
			tr.Failed = true
			return tr, err
		}
		step.Output = out
		tr.Steps = append(tr.Steps, step)
		prev = out
	}
	tr.Answer = prev
	return tr, nil
}

// acceptable is the self-reflection predicate: a step output is usable
// when it is non-empty and not an "unknown" refusal. Mirrors the paper's
// "self-reflection is essential for offering precise feedback on task
// breakdown and analysis" — the agent notices a dead-end step instead of
// feeding garbage forward.
func (a *Agent) acceptable(out string) bool {
	out = strings.TrimSpace(out)
	return out != "" && !llm.IsUnknown(out)
}
