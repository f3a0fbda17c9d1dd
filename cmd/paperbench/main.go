// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the simulated substrate and writes the results under
// experiments/results/.
//
//	paperbench -exp all                 # everything (default)
//	paperbench -exp table1,table2      # use case 1 only
//	paperbench -exp table7 -scale paper-shape
//
// Experiments: figure1 figure2 figure3 table1 table2 table3 table4 table5
// table6 table7 table7live layerdrift.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"llmtailor/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment list or 'all'")
	scaleFlag := flag.String("scale", "quick", "simulation scale: quick or paper-shape")
	outDir := flag.String("out", "experiments/results", "output directory ('' = stdout only)")
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fail(err)
	}
	selected := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }

	fmt.Fprintf(os.Stderr, "running experiments at scale %s ...\n", scale.Name)
	outputs, err := experiments.Paper(scale, want, nil, nil)
	if err != nil {
		fail(err)
	}
	if len(outputs) == 0 {
		fail(fmt.Errorf("no experiments selected by %q", *expFlag))
	}
	for _, o := range outputs {
		fmt.Println(o.Content)
		if *outDir != "" {
			path := filepath.Join(*outDir, o.Name+".txt")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fail(err)
			}
			if err := os.WriteFile(path, []byte(o.Content+"\n"), 0o644); err != nil {
				fail(err)
			}
		}
	}
	if *outDir != "" {
		fmt.Fprintf(os.Stderr, "wrote %d result files under %s\n", len(outputs), *outDir)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
