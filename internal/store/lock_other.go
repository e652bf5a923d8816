//go:build !unix

package store

import "os"

// Without flock a Store cannot tell whether another pack's writer is
// alive, so it treats every other pack as live: it serves their records
// but never truncates, evicts or rewrites them.
const lockSupported = false

func tryLock(*os.File) bool { return false }

func unlock(*os.File) {}

func lockShared(*os.File) {}

func lockExclusive(*os.File) {}

// unlinked is false: a Compact never removes another writer's pack here.
func unlinked(*os.File) bool { return false }
