// Command spyker-lint runs the repository's four static analyzers
// (internal/lint) over the given package patterns: determinism of the
// emulation layers, consumed errors on transport/live send paths, the
// //spyker:guardedby mutex protocol and goroutine shutdown ties. CI runs
// it before the test steps; any finding fails the build.
//
// Usage:
//
//	spyker-lint ./...                     # lint the whole module
//	spyker-lint -list                     # enumerate analyzers
//	spyker-lint -only determinism ./...   # one analyzer
//	spyker-lint -json ./internal/spyker   # machine-readable findings
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/spyker-fl/spyker/internal/lint"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spyker-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "print findings as JSON instead of compiler-style lines")
		only    = fs.String("only", "", "comma-separated analyzer names to run (empty = all)")
		list    = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var selected []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				selected = append(selected, name)
			}
		}
	}

	cfg := lint.DefaultConfig()
	if wd, err := os.Getwd(); err == nil {
		cfg.RelDir = wd
	}

	diags, err := lint.Run(cfg, "", selected, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "spyker-lint:", err)
		return 2
	}

	if *jsonOut {
		report := struct {
			Findings []lint.Diagnostic `json:"findings"`
			Count    int               `json:"count"`
		}{Findings: diags, Count: len(diags)}
		if report.Findings == nil {
			report.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "spyker-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "spyker-lint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
