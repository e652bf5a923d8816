package serve

// The /v1/store routes are the peer side of the store's read-through
// tiering (see internal/store): replicas fetch each other's entries as
// raw envelopes and re-verify checksum and identity on receipt, so a
// confused peer can degrade a fleet to recomputation but never poison
// it. These routes serve infrastructure traffic between replicas, so
// they bypass the per-client rate limiter and the in-flight cap — a
// throttled peer fetch would silently turn fleet-wide cache hits into
// recomputed searches. Compaction, in contrast, is an operator action
// and goes through the normal limits.

import "net/http"

// handleStoreGet serves GET /v1/store/{kind}/{addr}: the verified raw
// envelope bytes at that address, 404 when absent (or when this replica
// has no local store to serve from).
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "this replica has no local store")
		return
	}
	raw, ok, err := s.store.GetRaw(r.PathValue("kind"), r.PathValue("addr"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no entry at this address")
		return
	}
	writeRawJSON(w, http.StatusOK, raw)
}

// handleStorePut accepts PUT /v1/store/{kind}/{addr}: a diskless worker
// (or a healing chain) contributing an entry. The envelope is fully
// re-verified — version, kind, payload checksum, and that its identity
// hashes to the address it was sent for — before anything is stored.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "this replica has no local store")
		return
	}
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := s.store.PutRaw(r.PathValue("kind"), r.PathValue("addr"), data); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreCompact runs POST /v1/store/compact: the online compaction
// pass — drop quarantine debris, re-read every pack, re-apply the disk
// budget, rewrite this replica's live records into a fresh pack — and
// reports what it did.
func (s *Server) handleStoreCompact(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "this replica has no local store")
		return
	}
	cs, err := s.store.Compact(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.logger.Info("store compacted",
		"quarantineRemoved", cs.QuarantineRemoved,
		"entries", cs.EntriesAfter, "bytes", cs.BytesAfter, "evicted", cs.Evicted)
	writeJSON(w, http.StatusOK, cs)
}
