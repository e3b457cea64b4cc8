package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// handlerFiles are the root package's handler-bearing files: the files
// where HTTP responses are written and the JSON error contract
// therefore applies.
var handlerFiles = map[string]bool{
	"front.go":           true,
	"serve.go":           true,
	"router.go":          true,
	"routerupdate.go":    true,
	"routerworkloads.go": true,
	"shaping.go":         true,
}

// errHelpers are the sanctioned response writers. httpError and
// writeJSON take the status as their second argument; writeShed is the
// 429 contract (status fixed inside); writeError maps every error a
// handler returns to its status, a requestError to its own code. Their
// own bodies are the one place WriteHeader may be called.
var errHelpers = map[string]bool{
	"httpError":  true,
	"writeJSON":  true,
	"writeShed":  true,
	"writeError": true,
}

// documentedStatuses is the per-endpoint error vocabulary README.md and
// ARCHITECTURE.md document for the whole stack: 400 (bad request), 404
// (endpoint not served in this deployment shape), 405 (method), 409
// (update conflict), 413 (body too large), 421 (misrouted vertex), 429
// (shed, via writeShed), 500 (internal expansion failure), 502 (cluster
// partial failure), 503 (no live replica). An error status outside this
// set is an undocumented contract change, not a new feature.
var documentedStatuses = map[int64]bool{
	400: true, 404: true, 405: true, 409: true, 413: true,
	421: true, 429: true, 500: true, 502: true, 503: true,
}

// Errcontract enforces the JSON error contract in handler-bearing
// files: no naked http.Error (it writes text/plain, breaking every
// client that decodes the documented {"error": ...} body), no direct
// WriteHeader with an error status outside the helpers, and no error
// status outside the documented per-endpoint sets.
var Errcontract = &Analyzer{
	Name: "errcontract",
	Doc: "handler files must emit errors through httpError/writeJSON/writeShed/writeError with " +
		"documented status codes (400/404/405/409/413/421/429/500/502/503); naked http.Error and " +
		"WriteHeader(4xx/5xx) bypass the JSON error contract",
	AppliesTo: func(rel string) bool { return rel == "" },
	Run:       runErrcontract,
}

func runErrcontract(pass *Pass) error {
	statuses := newStatusFolder(pass.Files)
	for _, f := range pass.Files {
		if !handlerFiles[pass.Filename(f.Pos())] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				pass.checkRequestError(lit, statuses)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(f, call, "net/http"); ok && name == "Error" {
				pass.Reportf(call.Pos(),
					"use httpError(w, code, msg) — clients decode the documented JSON {\"error\": ...} body",
					"naked http.Error bypasses the JSON error contract")
				return true
			}
			switch callee := calleeName(call); {
			case callee == "WriteHeader":
				if errHelpers[enclosingFunc(f, call.Pos())] {
					return true
				}
				if code, ok := statuses.arg(call, 0); ok && code >= 400 {
					pass.Reportf(call.Pos(),
						"route the error through httpError/writeJSON so the body follows the JSON contract",
						"direct WriteHeader(%d) outside the error helpers", code)
				}
			case callee == "httpError" || callee == "writeJSON":
				if code, ok := statuses.arg(call, 1); ok {
					pass.checkStatus(call.Pos(), code)
				}
			}
			return true
		})
	}
	return nil
}

// checkRequestError holds a requestError literal's code — the status
// writeError answers it with — to the documented set too.
func (p *Pass) checkRequestError(lit *ast.CompositeLit, statuses statusFolder) {
	if id, ok := unparen(lit.Type).(*ast.Ident); !ok || id.Name != "requestError" {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "code" {
				if code, ok := statuses.status(kv.Value); ok {
					p.checkStatus(kv.Pos(), code)
				}
			}
		}
	}
}

// checkStatus reports an error status outside the documented set.
func (p *Pass) checkStatus(pos token.Pos, code int64) {
	if code >= 400 && !documentedStatuses[code] {
		p.Reportf(pos,
			"document the new status in README.md/ARCHITECTURE.md and add it to errcontract's set, or use a documented one",
			"undocumented error status %d", code)
	}
}

// calleeName returns the called function's bare name for plain and
// selector calls.
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// statusFolder folds status codes over a package's non-test files
// without type information. consts maps each constant they declare, at
// package level or in a function, to its value expression. Scope is
// ignored: a name declared twice maps to nil, and so does a name whose
// value is implicit (an iota repetition); neither folds. httpNames are
// the names the files import net/http under. folded memoises each
// constant's fold; a name is entered as not folding while its own value
// is folded, so a cycle (which parses but does not compile) fails the
// fold and every constant is folded at most once.
type statusFolder struct {
	consts    map[string]ast.Expr
	httpNames map[string]bool
	folded    map[string]foldedConst
}

type foldedConst struct {
	code int64
	ok   bool
}

func newStatusFolder(files []*ast.File) statusFolder {
	t := statusFolder{
		consts:    map[string]ast.Expr{},
		httpNames: map[string]bool{},
		folded:    map[string]foldedConst{},
	}
	for _, f := range files {
		if name := localImportName(f, "net/http"); name != "" {
			t.httpNames[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			d, ok := n.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				return true
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					var v ast.Expr
					if _, dup := t.consts[name.Name]; !dup && len(vs.Values) == len(vs.Names) {
						v = vs.Values[i]
					}
					t.consts[name.Name] = v
				}
			}
			return false
		})
	}
	return t
}

// arg folds call argument i to a status code; see status.
func (t statusFolder) arg(call *ast.CallExpr, i int) (int64, bool) {
	if i >= len(call.Args) {
		return 0, false
	}
	return t.status(call.Args[i])
}

// status folds e to an integer status code without type information:
// integer literals, net/http Status* names and the package's own
// constants, chains of them included, through parentheses and + - *
// over those. Anything else (a variable, a call, a relayed code) does
// not fold and is not checked.
func (t statusFolder) status(e ast.Expr) (int64, bool) {
	switch e := unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			v, err := strconv.ParseInt(e.Value, 0, 64)
			return v, err == nil
		}
	case *ast.SelectorExpr:
		if base, ok := e.X.(*ast.Ident); ok && t.httpNames[base.Name] {
			v, ok := httpStatusByName[e.Sel.Name]
			return v, ok
		}
	case *ast.Ident:
		return t.constant(e.Name)
	case *ast.BinaryExpr:
		x, okx := t.status(e.X)
		y, oky := t.status(e.Y)
		if okx && oky {
			switch e.Op {
			case token.ADD:
				return x + y, true
			case token.SUB:
				return x - y, true
			case token.MUL:
				return x * y, true
			}
		}
	}
	return 0, false
}

// constant folds the package constant name once and memoises the result.
func (t statusFolder) constant(name string) (int64, bool) {
	if c, seen := t.folded[name]; seen {
		return c.code, c.ok
	}
	v := t.consts[name]
	if v == nil {
		return 0, false
	}
	t.folded[name] = foldedConst{} // in progress: a cycle back here fails
	code, ok := t.status(v)
	t.folded[name] = foldedConst{code, ok}
	return code, ok
}

// httpStatusByName resolves every status constant net/http declares
// (src/net/http/status.go), so a status written by any of its names
// folds; TestHTTPStatusTable holds the table to the toolchain's file.
var httpStatusByName = map[string]int64{
	"StatusContinue":                      100,
	"StatusSwitchingProtocols":            101,
	"StatusProcessing":                    102,
	"StatusEarlyHints":                    103,
	"StatusOK":                            200,
	"StatusCreated":                       201,
	"StatusAccepted":                      202,
	"StatusNonAuthoritativeInfo":          203,
	"StatusNoContent":                     204,
	"StatusResetContent":                  205,
	"StatusPartialContent":                206,
	"StatusMultiStatus":                   207,
	"StatusAlreadyReported":               208,
	"StatusIMUsed":                        226,
	"StatusMultipleChoices":               300,
	"StatusMovedPermanently":              301,
	"StatusFound":                         302,
	"StatusSeeOther":                      303,
	"StatusNotModified":                   304,
	"StatusUseProxy":                      305,
	"StatusTemporaryRedirect":             307,
	"StatusPermanentRedirect":             308,
	"StatusBadRequest":                    400,
	"StatusUnauthorized":                  401,
	"StatusPaymentRequired":               402,
	"StatusForbidden":                     403,
	"StatusNotFound":                      404,
	"StatusMethodNotAllowed":              405,
	"StatusNotAcceptable":                 406,
	"StatusProxyAuthRequired":             407,
	"StatusRequestTimeout":                408,
	"StatusConflict":                      409,
	"StatusGone":                          410,
	"StatusLengthRequired":                411,
	"StatusPreconditionFailed":            412,
	"StatusRequestEntityTooLarge":         413,
	"StatusRequestURITooLong":             414,
	"StatusUnsupportedMediaType":          415,
	"StatusRequestedRangeNotSatisfiable":  416,
	"StatusExpectationFailed":             417,
	"StatusTeapot":                        418,
	"StatusMisdirectedRequest":            421,
	"StatusUnprocessableEntity":           422,
	"StatusLocked":                        423,
	"StatusFailedDependency":              424,
	"StatusTooEarly":                      425,
	"StatusUpgradeRequired":               426,
	"StatusPreconditionRequired":          428,
	"StatusTooManyRequests":               429,
	"StatusRequestHeaderFieldsTooLarge":   431,
	"StatusUnavailableForLegalReasons":    451,
	"StatusInternalServerError":           500,
	"StatusNotImplemented":                501,
	"StatusBadGateway":                    502,
	"StatusServiceUnavailable":            503,
	"StatusGatewayTimeout":                504,
	"StatusHTTPVersionNotSupported":       505,
	"StatusVariantAlsoNegotiates":         506,
	"StatusInsufficientStorage":           507,
	"StatusLoopDetected":                  508,
	"StatusNotExtended":                   510,
	"StatusNetworkAuthenticationRequired": 511,
}

// DocumentedStatusList renders the contract set for docs and tests.
func DocumentedStatusList() string {
	codes := make([]int, 0, len(documentedStatuses))
	for c := range documentedStatuses {
		codes = append(codes, int(c))
	}
	sort.Ints(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, "/")
}
