// Command compso-bench regenerates the paper's evaluation tables and
// figures (§5), plus the repository's judges, from the reproduction's
// simulated platforms and synthetic workloads. Every experiment is one
// entry of the ordered registry in internal/experiments, run with -exp:
//
//	compso-bench -exp all              # everything (slow: trains proxies)
//	compso-bench -exp quick            # every entry that trains no proxy
//	compso-bench -exp fig1             # one experiment
//	compso-bench -exp fig6,table1 -iters 60  # several, custom budget
//	compso-bench -exp fig8 -measure    # include real Go throughput runs
//	compso-bench -exp lowrank -quick   # CI-sized samples and budgets
//
// Experiments: headline, fig1, fig3, fig5, fig6, table1, fig7, table2,
// comm, fig8, fig9, ablation (the paper), then lowrank (per-layer
// PowerSGD/COMPSO plan vs all-COMPSO), overlap (pipelined vs sequential
// K-FAC step), chaos (fault-injection matrix), crash (checkpoint-interval
// sweep plus a measured crash-and-restore) and observed (one instrumented
// 8-GPU K-FAC + COMPSO run). A judge exits non-zero when its acceptance
// bar fails; no flag is needed for that.
//
// With -json PATH the rows of every experiment run are written to PATH as
// a {experiment: rows} JSON object. -trace and -metrics write the Chrome
// trace (Perfetto-viewable, schema-validated) and flat metrics dump of the
// one traced experiment selected, observed or chaos's combined scenario.
// -validate FILE checks an existing trace against the Chrome trace-event
// schema and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"compso/internal/experiments"
	"compso/internal/obs"
)

func main() {
	var o experiments.Options
	exp := flag.String("exp", "all", "experiments to run: all, quick, or a comma-separated list of "+strings.Join(experiments.Names(), ", "))
	flag.IntVar(&o.Iters, "iters", 0, "training iteration budget of fig3, fig6, table1, chaos, crash and observed (0 = each experiment's default)")
	flag.BoolVar(&o.Quick, "quick", false, "CI-sized gradient samples and training budgets")
	flag.BoolVar(&o.Measure, "measure", false, "fig8: also measure real Go implementation throughput")
	jsonPath := flag.String("json", "", "write the rows of the selected experiments to this file")
	flag.StringVar(&o.TracePath, "trace", "", "write the selected traced experiment's Chrome trace to this file")
	flag.StringVar(&o.MetricsPath, "metrics", "", "write the selected traced experiment's flat metrics dump (JSON) to this file")
	validatePath := flag.String("validate", "", "validate an existing Chrome trace file against the trace-event schema and exit")
	flag.Parse()

	if *validatePath != "" {
		blob, err := os.ReadFile(*validatePath)
		if err == nil {
			err = obs.ValidateChromeTrace(blob)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate: %s: %v\n", *validatePath, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Chrome trace\n", *validatePath)
		return
	}

	selected, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.TracePath != "" || o.MetricsPath != "" {
		traced := 0
		for _, e := range selected {
			if e.Traced {
				traced++
			}
		}
		if traced != 1 {
			fmt.Fprintf(os.Stderr, "-trace and -metrics need exactly one traced experiment (observed or chaos) selected; -exp %s selects %d\n", *exp, traced)
			os.Exit(2)
		}
	}

	collected := map[string]any{}
	for _, e := range selected {
		rep, err := e.Run(o)
		if rep != nil {
			for _, tb := range rep.Tables {
				fmt.Println(tb)
			}
			collected[rep.Name] = rep.Rows
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	for _, path := range []string{o.TracePath, o.MetricsPath} {
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(collected, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, len(collected))
	}
}
