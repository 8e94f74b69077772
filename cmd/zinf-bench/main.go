// Command zinf-bench regenerates the paper's tables and figures. Each
// experiment runs a fixed recipe that already contrasts the variants it is
// about; only the compute backend, which never changes a bit, is selectable.
//
// Usage:
//
//	zinf-bench            # list experiments
//	zinf-bench -run all   # run everything
//	zinf-bench -run fig5a # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	zeroinf "repro"
	"repro/internal/harness"
)

func main() {
	backend := flag.String("backend", "reference",
		"compute backend: "+strings.Join(zeroinf.Backends(), "|")+" (bit-identical, parallel uses all cores)")
	run := flag.String("run", "", "experiment id to run, or 'all'")
	jsonOut := flag.String("json", "",
		"write the run's machine-readable records (BENCH_*.json style) to this path ('-' = stdout)")
	flag.Parse()

	be, err := zeroinf.BackendByName(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	harness.SetBackend(be)

	if *run == "" {
		fmt.Println("Available experiments (use -run <id> or -run all):")
		for _, e := range harness.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}
	var failed bool
	for _, e := range harness.All() {
		if *run != "all" && e.ID != *run {
			continue
		}
		if err := harness.Run(os.Stdout, e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", e.ID, err)
			failed = true
		}
		fmt.Println()
	}
	if *run != "all" {
		if _, ok := harness.ByID(*run); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
			os.Exit(2)
		}
	}
	if *jsonOut != "" {
		var w *os.File
		if *jsonOut == "-" {
			w = os.Stdout
		} else {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := harness.WriteRecords(w, *backend); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}
