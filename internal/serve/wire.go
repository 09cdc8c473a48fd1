package serve

import (
	"encoding/json"
	"net/http"

	"lmi/internal/chaos"
)

// resultJSON is the wire form of a Result.
type resultJSON struct {
	Status    Status        `json:"status"`
	Attempts  int           `json:"attempts"`
	Class     Class         `json:"class,omitempty"`
	Outcome   chaos.Outcome `json:"outcome,omitempty"`
	Cycles    uint64        `json:"cycles,omitempty"`
	ECChecked uint64        `json:"ec_checked,omitempty"`
	ECElided  uint64        `json:"ec_elided,omitempty"`
	Detail    string        `json:"detail,omitempty"`
	Error     string        `json:"error,omitempty"`
	Bundle    string        `json:"bundle_digest,omitempty"`
}

// WriteResult renders a Result as JSON with the given HTTP status: the
// wire form of POST /run.
func WriteResult(w http.ResponseWriter, code int, res Result) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resultJSON{
		Status:    res.Status,
		Attempts:  res.Attempts,
		Class:     res.Class,
		Outcome:   res.Outcome,
		Cycles:    res.Cycles,
		ECChecked: res.ECChecked,
		ECElided:  res.ECElided,
		Detail:    res.Detail,
		Error:     errString(res.Err),
		Bundle:    res.BundleDigest,
	})
}
