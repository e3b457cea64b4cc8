// Package errcontract exercises the errcontract analyzer. This file is
// named serve.go because the contract binds handler-bearing files by
// name; other.go in the same package shows the scoping.
package errcontract

import "net/http"

type errBody struct {
	Error string `json:"error"`
}

// httpError is the sanctioned JSON error writer: its body is the one
// place WriteHeader may run.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(`{"error":"` + msg + `"}`))
}

// writeJSON is the sanctioned success/error body writer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.WriteHeader(code)
	_ = v
}

func handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "nope", http.StatusMethodNotAllowed) // want "naked http.Error"
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable) // want "direct WriteHeader"
	w.WriteHeader(http.StatusOK)                 // success statuses are not the contract's business
	w.WriteHeader(http.StatusGatewayTimeout)     // want "direct WriteHeader\\(504\\)"
}

// Named statuses fold through the package's constants without type
// information: chains of them, and + - * over them.
const (
	teapot   = http.StatusTeapot
	kettle   = teapot
	notFound = http.StatusNotFound
	tooEarly = (teapot + 7)
	badGate  = 2*250 + 2
)

func statuses(w http.ResponseWriter) {
	httpError(w, http.StatusNotFound, "documented")
	httpError(w, http.StatusTeapot, "undocumented")          // want "undocumented error status 418"
	httpError(w, http.StatusGatewayTimeout, "x")             // want "undocumented error status 504"
	httpError(w, http.StatusUnavailableForLegalReasons, "x") // want "undocumented error status 451"
	writeJSON(w, 502, errBody{})
	writeJSON(w, 451, errBody{})   // want "undocumented error status 451"
	writeJSON(w, 0x1c3, errBody{}) // want "undocumented error status 451"

	httpError(w, teapot, "named")   // want "undocumented error status 418"
	httpError(w, kettle, "a chain") // want "undocumented error status 418"
	httpError(w, notFound, "documented")
	writeJSON(w, tooEarly, errBody{})           // want "undocumented error status 425"
	writeJSON(w, badGate, errBody{})            // documented: 502
	writeJSON(w, (notFound-4)*1, errBody{})     // documented: 400
	writeJSON(w, (teapot+33)-notFound+404, nil) // want "undocumented error status 451"
	const local = http.StatusGone
	httpError(w, local, "function-scoped") // want "undocumented error status 410"
}
