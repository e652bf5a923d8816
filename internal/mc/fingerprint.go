package mc

import "fmt"

// Fingerprint is the search's 128-bit configuration-pruning key: two
// equal fingerprints mean (up to hash collision) the same non-volatile
// heap, the same per-process histories since each process's last crash,
// the same decisions and the same crash usage. Values are comparable;
// they are meaningful only within one process (the incremental pipeline
// builds on the process-wide intern table) and must never be persisted.
type Fingerprint [2]uint64

// String renders the fingerprint for test diagnostics.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f[0], f[1]) }
