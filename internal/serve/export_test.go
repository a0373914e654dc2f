package serve

import (
	"bytes"
	"net/http/httptest"
)

// MaxRestoreBytes is the restore body bound the daemon serves with.
const MaxRestoreBytes = maxRestoreBytes

// SetRestoreLimit lowers s's restore body bound, so tests can probe it
// with real checkpoints of a few kilobytes.
func (s *Server) SetRestoreLimit(n int64) { s.restoreLimit = n }

// CheckpointVersion is the checkpoint container version this build
// writes and reads.
const CheckpointVersion = checkpointVersion

// Admissible reports whether POST /jobs would admit body: it decodes
// through the handler's own decoder and runs the checks that come
// before a session is built, without building one.
func Admissible(body []byte) bool {
	var req submitRequest
	r := httptest.NewRequest("POST", "/jobs", bytes.NewReader(body))
	if !decodeBody(httptest.NewRecorder(), r, maxSubmitBytes, "submission", &req) {
		return false
	}
	return req.CheckpointAfter >= 0 && req.Scenario.Validate() == nil
}

// MaxSubmitBytes is the submission body bound.
const MaxSubmitBytes = maxSubmitBytes
