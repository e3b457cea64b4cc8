package errcontract

import nethttp "net/http"

// shaping.go imports net/http under another name: both the naked-Error
// match and the status fold follow the file's import name.
func shed(w nethttp.ResponseWriter) {
	nethttp.Error(w, "aliased", nethttp.StatusTooManyRequests) // want "naked http.Error"
	httpError(w, nethttp.StatusTeapot, "aliased")              // want "undocumented error status 418"
	httpError(w, nethttp.StatusTooManyRequests, "documented")
}
