package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// exportsAllowlist names the exported functions and methods under
// internal/ that are known to have no non-test caller outside their own
// package. The list may only shrink: a new entry is a new unreachable
// export, and an entry that gained a caller (or was deleted) is stale.
const exportsAllowlist = "cmd/docscheck/exports.allow"

// exportRoots are the trees whose non-test files count as callers: every
// internal package (for each other's exports), the commands, the examples,
// the public facade and the benchmark module.
var exportRoots = []string{"internal", "cmd", "examples", "mobigate.go", "bench"}

// checkExports reports every exported top-level function and method
// declared under internal/ that no non-test file outside its package
// reaches. A function is reached by a pkg.Name selector on its package's
// import; a method, lacking type information, by any selector of its name
// (so a method shadowed by a same-named one elsewhere is not flagged).
func checkExports(report func(string, ...any)) {
	fset := token.NewFileSet()
	type decl struct {
		dir, key string // key: "Func" or "Type.Method"
		method   string
	}
	var decls []decl
	funcUses := map[string]bool{}              // "importpath.Name"
	methodUses := map[string]map[string]bool{} // name → dirs selecting it

	for _, root := range exportRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if strings.HasPrefix(dir, "internal/") {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					if fd.Recv == nil {
						decls = append(decls, decl{dir: dir, key: fd.Name.Name})
					} else if recv := recvType(fd.Recv.List[0].Type); ast.IsExported(recv) {
						decls = append(decls, decl{dir: dir, key: recv + "." + fd.Name.Name, method: fd.Name.Name})
					}
				}
			}
			imports := map[string]string{} // local name → module-relative dir
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(p, "mobigate/internal/") {
					continue
				}
				name := p[strings.LastIndexByte(p, '/')+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "mobigate/")
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcUses[imports[x.Name]+"."+sel.Sel.Name] = true
				}
				if methodUses[sel.Sel.Name] == nil {
					methodUses[sel.Sel.Name] = map[string]bool{}
				}
				methodUses[sel.Sel.Name][dir] = true
				return true
			})
			return nil
		})
		if err != nil {
			report("exports: %v", err)
			return
		}
	}

	unreached := map[string]bool{}
	for _, d := range decls {
		reached := false
		if d.method == "" {
			reached = funcUses[d.dir+"."+d.key]
		} else {
			for dir := range methodUses[d.method] {
				if dir != d.dir {
					reached = true
					break
				}
			}
		}
		if !reached {
			unreached[d.dir+"."+d.key] = true
		}
	}

	allowed, err := readAllowlist(exportsAllowlist)
	if err != nil {
		report("%v", err)
		return
	}
	var fresh, stale []string
	for id := range unreached {
		if !allowed[id] {
			fresh = append(fresh, id)
		}
	}
	for id := range allowed {
		if !unreached[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, id := range fresh {
		report("exports: %s has no non-test caller outside its package (delete it, or unexport it)", id)
	}
	for _, id := range stale {
		report("%s: %s is reached or gone now; remove it from the list", exportsAllowlist, id)
	}
}

// recvType names a method receiver's base type (T for T, *T, T[P], *T[P]).
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// readAllowlist reads one identifier per line; blank lines and # comments
// are skipped.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out[line] = true
		}
	}
	return out, sc.Err()
}
