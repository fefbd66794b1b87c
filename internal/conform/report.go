package conform

import (
	"encoding/json"
	"fmt"
	"io"
)

// ClassStat aggregates verdicts for one defect class (or, under the
// empty key, for well-formed kernels).
type ClassStat struct {
	Generated     int `json:"generated"`
	Accepted      int `json:"accepted"`
	Rejected      int `json:"rejected"`
	Matched       int `json:"matched"`       // verifier said what the class expects
	Missed        int `json:"missed"`        // defect not flagged at all
	Misclassified int `json:"misclassified"` // flagged by the wrong pass / wrong severity
	Executed      int `json:"executed"`
	Diverged      int `json:"diverged"` // backends disagreed with the oracle
	Unsound       int `json:"unsound"`  // accepted graph failed to compile or run
}

// Failure is one conformance failure, with the recipe that triggered
// it and (for execution failures) its shrunk minimal form.
type Failure struct {
	Kind   string  `json:"kind"`
	Detail string  `json:"detail"`
	Recipe Recipe  `json:"recipe"`
	Shrunk *Recipe `json:"shrunk,omitempty"`
}

// Report is the outcome of one conformance run.
type Report struct {
	Seed     uint64                `json:"seed"`
	Count    int                   `json:"count"`
	Stats    map[string]*ClassStat `json:"stats"` // keyed by defect class; "" = well-formed
	Failures []Failure             `json:"failures,omitempty"`

	NativeRuns      int    `json:"native_runs"`
	NativeFallbacks int    `json:"native_fallbacks"`
	NativeNote      string `json:"native_note,omitempty"`
	Shrunk          int    `json:"shrunk"`
	// CountChecked counts executed cases whose count key the proof
	// admitted and that were re-run on other data to check it.
	CountChecked int `json:"count_checked"`
	// CountOnly counts admitted executed cases that the count-only
	// evaluator (core.Kernel.CountValues) reproduced without executing.
	CountOnly int `json:"count_only"`
}

func newReport(seed uint64, count int) *Report {
	return &Report{Seed: seed, Count: count, Stats: map[string]*ClassStat{}}
}

func (r *Report) stat(class string) *ClassStat {
	st := r.Stats[class]
	if st == nil {
		st = &ClassStat{}
		r.Stats[class] = st
	}
	return st
}

// Bad is the number of verdicts that fail the suite: missed defects,
// misclassified rejections, divergences and unsound accepts (plus any
// generator failures). Zero means full conformance.
func (r *Report) Bad() int {
	n := 0
	for _, st := range r.Stats {
		n += st.Missed + st.Misclassified + st.Diverged + st.Unsound
	}
	for _, f := range r.Failures {
		if f.Kind == KindGenFail {
			n++
		}
	}
	return n
}

// ClassesExercised counts defect classes (not the well-formed row)
// that generated at least one case.
func (r *Report) ClassesExercised() int {
	n := 0
	for class, st := range r.Stats {
		if class != DefectNone && st.Generated > 0 {
			n++
		}
	}
	return n
}

// rows returns report rows in stable order: well-formed first, then
// the defect classes in their canonical order.
func (r *Report) rows() []string {
	rows := []string{DefectNone}
	rows = append(rows, Classes...)
	return rows
}

// Render writes the deterministic text report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "conform: seed=%d count=%d\n", r.Seed, r.Count)
	fmt.Fprintf(w, "%-12s %9s %8s %8s %8s %7s %7s %8s %8s %8s\n",
		"class", "generated", "accepted", "rejected", "matched", "missed", "miscls", "executed", "diverged", "unsound")
	for _, class := range r.rows() {
		st := r.Stats[class]
		if st == nil || st.Generated == 0 {
			continue
		}
		name := class
		if name == DefectNone {
			name = "(well-formed)"
		}
		fmt.Fprintf(w, "%-12s %9d %8d %8d %8d %7d %7d %8d %8d %8d\n",
			name, st.Generated, st.Accepted, st.Rejected, st.Matched,
			st.Missed, st.Misclassified, st.Executed, st.Diverged, st.Unsound)
	}
	fmt.Fprintf(w, "native: %d run(s), %d fallback(s)", r.NativeRuns, r.NativeFallbacks)
	if r.NativeNote != "" {
		fmt.Fprintf(w, " (%s)", r.NativeNote)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "count invariance: %d case(s) re-run on other data, %d counted without executing\n",
		r.CountChecked, r.CountOnly)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s: %s\n  recipe: %s\n", f.Kind, f.Detail, f.Recipe.String())
		if f.Shrunk != nil {
			fmt.Fprintf(w, "  shrunk: %s\n", f.Shrunk.String())
		}
	}
	if n := r.Bad(); n > 0 {
		fmt.Fprintf(w, "conform: %d failure(s)\n", n)
	} else {
		fmt.Fprintln(w, "conform: ok")
	}
}

// WriteJSON emits the whole report as one JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
