package errcontract

import "net/http"

// front.go is handler-bearing too: the shared HTTP front of both tiers.

// requestError carries its own status to writeError.
type requestError struct {
	code int
	msg  string
}

func (e *requestError) Error() string { return e.msg }

// relayed is a response written back unchanged.
type relayed struct{ code int }

func (e *relayed) Error() string { return "relayed" }

// writeError is the one error writer: its body may call WriteHeader with
// any status, constant or relayed.
func writeError(w http.ResponseWriter, err error) {
	if r, ok := err.(*relayed); ok {
		w.WriteHeader(r.code)
		return
	}
	w.WriteHeader(http.StatusBadGateway)
}

func refusals() []error {
	return []error{
		&requestError{code: http.StatusMethodNotAllowed, msg: "documented"},
		&requestError{msg: "no code set", code: 413},
		&requestError{code: http.StatusTeapot, msg: "undocumented"}, // want "undocumented error status 418"
		&requestError{code: 451},                                    // want "undocumented error status 451"
		&requestError{code: teapot, msg: "named"},                   // want "undocumented error status 418"
		&requestError{code: notFound, msg: "named, documented"},
		&requestError{code: http.StatusUnprocessableEntity}, // want "undocumented error status 422"
	}
}

func frontHandler(w http.ResponseWriter) {
	writeError(w, &requestError{code: http.StatusNotFound})
	w.WriteHeader(http.StatusBadGateway) // want "direct WriteHeader"
}
