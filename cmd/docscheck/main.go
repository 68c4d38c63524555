// Command docscheck lints the repository documentation so the pages and
// the code cannot drift apart silently:
//
//   - every docs/*.md page must be linked from README.md;
//   - every relative markdown link (README.md, docs/*.md, EXPERIMENTS.md,
//     ROADMAP.md) must resolve to an existing file;
//   - every fenced “mcl“ block must parse with the real MCL parser
//     (blocks whose first line is the comment "// fragment" are instead
//     checked word-by-word against the attribute and policy-signal
//     vocabulary);
//   - every -flag mentioned on a “sh“/“console“ command line for one
//     of the cmd/* tools must exist in that tool's flag set, read from its
//     source;
//   - mobibench's experimentsTable and its package comment's `-exp` list
//     must enumerate exactly the same modes (plus the implicit `all`);
//   - the metric catalog (internal/obs/catalog.go) and the metric tables
//     in docs/OBSERVABILITY.md must list exactly the same series names,
//     in both directions.
//   - every exported function and method under internal/ must have a
//     non-test caller outside its package (in internal/, cmd/, examples/,
//     mobigate.go or bench/), or be named in cmd/docscheck/exports.allow,
//     a list that may only shrink.
//
// Run from the repository root (make docs-check does). Exits nonzero on
// any finding.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"mobigate/internal/mcl"
)

func main() {
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil || len(pages) == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: no docs/*.md found (run from the repository root)")
		os.Exit(1)
	}
	sort.Strings(pages)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, page := range pages {
		if !strings.Contains(string(readme), filepath.ToSlash(page)) {
			report("README.md: does not link %s", page)
		}
	}

	flags, err := loadCmdFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}

	checkMobibenchModes(report)
	checkMetricCatalog(report)
	checkExports(report)

	files := append([]string{"README.md", "EXPERIMENTS.md", "ROADMAP.md"}, pages...)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			if path == "EXPERIMENTS.md" || path == "ROADMAP.md" {
				continue // optional pages
			}
			report("%s: %v", path, err)
			continue
		}
		checkFile(path, string(data), flags, report)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d pages clean\n", len(files))
}

var (
	linkRe  = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	fenceRe = regexp.MustCompile("(?ms)^```([a-z]*)\n(.*?)^```")
	flagRe  = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)\(\s*"([^"]+)"`)
)

// loadCmdFlags reads each cmd/<tool>/main.go and extracts its flag names,
// keyed by tool name.
func loadCmdFlags() (map[string]map[string]bool, error) {
	tools, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool)
	for _, mainGo := range tools {
		tool := filepath.Base(filepath.Dir(mainGo))
		src, err := os.ReadFile(mainGo)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool)
		for _, m := range flagRe.FindAllStringSubmatch(string(src), -1) {
			set[m[1]] = true
		}
		out[tool] = set
	}
	return out, nil
}

func checkFile(path, data string, flags map[string]map[string]bool, report func(string, ...any)) {
	// Relative links must resolve. Fenced blocks are cut out first so code
	// that happens to contain ](...) is not treated as a link.
	prose := fenceRe.ReplaceAllString(data, "")
	for _, m := range linkRe.FindAllStringSubmatch(prose, -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			report("%s: broken link %q (%s does not exist)", path, m[1], resolved)
		}
	}

	for _, m := range fenceRe.FindAllStringSubmatch(data, -1) {
		lang, body := m[1], m[2]
		switch lang {
		case "mcl":
			checkMCLBlock(path, body, report)
		case "sh", "console", "bash":
			checkShellBlock(path, body, flags, report)
		}
	}
}

// mclAttrWords is the attribute/keyword vocabulary fragments are checked
// against: a word used in `name = value` or `when (name ...)` position must
// be one of these or a known policy signal.
var mclAttrWords = map[string]bool{
	"type": true, "library": true, "workers": true, "batch": true,
	"cacheable": true, "pooling": true, "param": true, "sustain": true,
	"cooldown": true, "insert": true, "remove": true, "between": true,
	"and": true,
}

func checkMCLBlock(path, body string, report func(string, ...any)) {
	first := strings.TrimSpace(strings.SplitN(body, "\n", 2)[0])
	if strings.HasPrefix(first, "//") && strings.Contains(first, "fragment") {
		// Grammar fragments cannot parse alone; verify their vocabulary.
		condRe := regexp.MustCompile(`when\s*\(\s*([a-z_]+)\s*[<>]`)
		for _, c := range condRe.FindAllStringSubmatch(body, -1) {
			if !mcl.KnownPolicySignal(c[1]) {
				report("%s: mcl fragment uses unknown policy signal %q (known: %s)",
					path, c[1], strings.Join(mcl.PolicySignals(), ", "))
			}
		}
		attrRe := regexp.MustCompile(`(?m)^\s*([a-z_]+)\s*=`)
		for _, a := range attrRe.FindAllStringSubmatch(body, -1) {
			if !mclAttrWords[a[1]] {
				report("%s: mcl fragment uses unknown attribute %q", path, a[1])
			}
		}
		return
	}
	if _, err := mcl.Parse(body); err != nil {
		report("%s: mcl block does not parse: %v", path, err)
	}
}

var (
	expTableRe = regexp.MustCompile(`(?m)^\s*\{"([a-z0-9.]+)",\s*"`)
	expDocRe   = regexp.MustCompile(`(?m)^//\s+mobibench -exp ([a-z0-9.]+)`)
)

// checkMobibenchModes keeps mobibench's -exp surface honest: the
// experimentsTable (which drives dispatch and the usage text) and the
// package comment's mode list must enumerate the same set, so a new
// experiment cannot land without showing up in the tool's own help.
func checkMobibenchModes(report func(string, ...any)) {
	const mainGo = "cmd/mobibench/main.go"
	src, err := os.ReadFile(mainGo)
	if err != nil {
		report("%s: %v", mainGo, err)
		return
	}
	table := map[string]bool{"all": true} // `all` is implicit in the table
	for _, m := range expTableRe.FindAllStringSubmatch(string(src), -1) {
		table[m[1]] = true
	}
	if len(table) < 2 {
		report("%s: experimentsTable not found (docscheck expects it)", mainGo)
		return
	}
	doc := map[string]bool{}
	for _, m := range expDocRe.FindAllStringSubmatch(string(src), -1) {
		doc[m[1]] = true
	}
	for mode := range table {
		if !doc[mode] {
			report("%s: experimentsTable mode %q missing from the package comment's -exp list", mainGo, mode)
		}
	}
	for mode := range doc {
		if !table[mode] {
			report("%s: package comment lists -exp %q, which is not in experimentsTable", mainGo, mode)
		}
	}
}

var (
	catalogNameRe = regexp.MustCompile(`= "((?:mobigate|go)_[a-z0-9_]+)"`)
	docMetricRe   = regexp.MustCompile("(?m)^\\| `((?:mobigate|go)_[a-z0-9_]+)` \\| (?:counter|gauge|summary) \\|")
)

// checkMetricCatalog keeps the observability page's metric tables and the
// registered catalog in lockstep, both directions: a metric added to
// internal/obs/catalog.go must gain a table row in docs/OBSERVABILITY.md,
// and a documented series must still exist in the catalog.
func checkMetricCatalog(report func(string, ...any)) {
	const (
		catalogGo = "internal/obs/catalog.go"
		docsPage  = "docs/OBSERVABILITY.md"
	)
	src, err := os.ReadFile(catalogGo)
	if err != nil {
		report("%s: %v", catalogGo, err)
		return
	}
	doc, err := os.ReadFile(docsPage)
	if err != nil {
		report("%s: %v", docsPage, err)
		return
	}
	catalog := map[string]bool{}
	for _, m := range catalogNameRe.FindAllStringSubmatch(string(src), -1) {
		catalog[m[1]] = true
	}
	if len(catalog) == 0 {
		report("%s: no metric name constants found (docscheck expects them)", catalogGo)
		return
	}
	documented := map[string]bool{}
	for _, m := range docMetricRe.FindAllStringSubmatch(string(doc), -1) {
		if documented[m[1]] {
			report("%s: metric %s documented twice", docsPage, m[1])
		}
		documented[m[1]] = true
	}
	var missing, orphaned []string
	for name := range catalog {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !catalog[name] {
			orphaned = append(orphaned, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(orphaned)
	for _, name := range missing {
		report("%s: catalog metric %s has no table row in %s", catalogGo, name, docsPage)
	}
	for _, name := range orphaned {
		report("%s: documents metric %s, which is not in %s", docsPage, name, catalogGo)
	}
}

func checkShellBlock(path, body string, flags map[string]map[string]bool, report func(string, ...any)) {
	for _, line := range strings.Split(body, "\n") {
		words := strings.Fields(line)
		var set map[string]bool
		toolName := ""
		for _, w := range words {
			// A word naming a cmd/* tool ("mobibench", "./cmd/mobibench",
			// "./bin/mclc") selects its flag set for the rest of the line.
			base := w[strings.LastIndexByte(w, '/')+1:]
			if s, ok := flags[base]; ok {
				set, toolName = s, base
				continue
			}
			if set == nil || !strings.HasPrefix(w, "-") || w == "-" || strings.HasPrefix(w, "--") {
				continue
			}
			name := strings.TrimPrefix(w, "-")
			if i := strings.IndexByte(name, '='); i >= 0 {
				name = name[:i]
			}
			if name != "" && !set[name] {
				report("%s: %s has no flag -%s (line: %q)", path, toolName, name, strings.TrimSpace(line))
			}
		}
	}
}
