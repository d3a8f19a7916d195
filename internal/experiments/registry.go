package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Report is what every experiment returns: its name, the tables
// compso-bench prints, and the rows -json writes under the name.
type Report struct {
	Name   string
	Tables []*Table
	Rows   any
}

// Options carries compso-bench's flags to the experiments. Each field has
// one meaning everywhere; an experiment without the matching knob ignores
// it.
type Options struct {
	// Iters is the training budget of fig3, fig6, table1, chaos, crash and
	// observed (0 = each experiment's default).
	Iters int
	// Quick shrinks lowrank's and overlap's gradient samples and budgets
	// to CI size.
	Quick bool
	// Measure adds real Go throughput runs (fig8).
	Measure bool
	// TracePath and MetricsPath receive a Traced experiment's Chrome trace
	// and flat metrics dump ("" skips either).
	TracePath, MetricsPath string
}

// Experiment is one registry entry.
type Experiment struct {
	Name string
	// Slow marks the entries -exp quick skips: they train proxy models.
	Slow bool
	// Traced marks the entries that write Options.TracePath/MetricsPath.
	Traced bool
	run    func(Options) (*Report, error)
}

// Run executes the experiment. A judge whose acceptance bar fails returns
// its report beside the error, so the failing rows can still be printed.
func (e Experiment) Run(o Options) (*Report, error) {
	rep, err := e.run(o)
	if rep != nil {
		rep.Name = e.Name
	}
	return rep, err
}

// single wraps an experiment function's rows and table in a Report.
func single[R any](rows R, tb *Table, err error) (*Report, error) {
	if tb == nil {
		return nil, err
	}
	return &Report{Tables: []*Table{tb}, Rows: rows}, err
}

// Registry returns every experiment in the order -exp all runs them.
func Registry() []Experiment {
	return []Experiment{
		{Name: "headline", run: func(Options) (*Report, error) { return single(Headline()) }},
		{Name: "fig1", run: func(Options) (*Report, error) {
			rows, tb := Figure1()
			return single(rows, tb, nil)
		}},
		{Name: "fig3", Slow: true, run: func(o Options) (*Report, error) { return single(Figure3(o.Iters)) }},
		{Name: "fig5", run: func(Options) (*Report, error) {
			results, tb := Figure5()
			return &Report{Tables: []*Table{tb, fig5DensityTable(results)}, Rows: results}, nil
		}},
		{Name: "fig6", Slow: true, run: func(o Options) (*Report, error) {
			runs, tb, err := Figure6(o.Iters)
			if err != nil {
				return nil, err
			}
			return &Report{Tables: []*Table{tb, fig6LossTable(runs)}, Rows: runs}, nil
		}},
		{Name: "table1", Slow: true, run: func(o Options) (*Report, error) { return single(Table1(o.Iters)) }},
		{Name: "fig7", run: func(Options) (*Report, error) { return single(Figure7()) }},
		{Name: "table2", run: func(Options) (*Report, error) { return single(Table2()) }},
		{Name: "comm", run: func(Options) (*Report, error) { return single(CommBreakdown()) }},
		{Name: "fig8", run: func(o Options) (*Report, error) { return single(Figure8(o.Measure)) }},
		{Name: "fig9", run: func(Options) (*Report, error) { return single(Figure9()) }},
		{Name: "ablation", run: func(Options) (*Report, error) { return single(Ablations()) }},
		{Name: "lowrank", Slow: true, run: func(o Options) (*Report, error) {
			rep, tb, err := LowRankJudge(o.Quick)
			if rep == nil {
				return nil, err
			}
			return &Report{Tables: []*Table{tb, lowRankConvergenceTable(rep.Convergence)}, Rows: rep}, err
		}},
		{Name: "overlap", run: func(o Options) (*Report, error) { return single(OverlapJudge(o.Quick)) }},
		{Name: "chaos", Slow: true, Traced: true, run: func(o Options) (*Report, error) {
			return single(ChaosMatrix(o.Iters, o.TracePath, o.MetricsPath))
		}},
		{Name: "crash", Slow: true, run: func(o Options) (*Report, error) {
			sweep, tb := CrashRecoverySweep()
			m, err := CrashMeasuredRun(o.Iters)
			rows := struct {
				Sweep    []CrashRow    `json:"sweep"`
				Measured CrashMeasured `json:"measured"`
			}{sweep, m}
			return &Report{Tables: []*Table{tb, crashMeasuredTable(m)}, Rows: rows}, err
		}},
		{Name: "observed", Slow: true, Traced: true, run: func(o Options) (*Report, error) {
			return single(CaptureObserved(o.Iters, o.TracePath, o.MetricsPath))
		}},
	}
}

// Names lists the registry's experiment names in order.
func Names() []string { return names(Registry()) }

func names(es []Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// Select resolves an -exp value: "all", "quick" (every entry not marked
// Slow), or a comma-separated list of names, run in the order given.
func Select(spec string) ([]Experiment, error) {
	all := Registry()
	if spec == "all" {
		return all, nil
	}
	var out []Experiment
	if spec == "quick" {
		for _, e := range all {
			if !e.Slow {
				out = append(out, e)
			}
		}
		return out, nil
	}
	for _, name := range strings.Split(spec, ",") {
		i := slices.IndexFunc(all, func(e Experiment) bool { return e.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (have: all, quick, %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, all[i])
	}
	return out, nil
}
