//go:build unix

package store

import (
	"os"
	"syscall"
)

// lockSupported says tryLock can tell a live writer's pack from one
// whose writer is gone.
const lockSupported = true

// tryLock takes f's exclusive writer lock without blocking. The lock
// belongs to the open file, so it ends when f is closed or its process
// dies.
func tryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

func unlock(f *os.File) { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }

// lockShared and lockExclusive take f's lock, waiting for it.
func lockShared(f *os.File)    { lockWait(f, syscall.LOCK_SH) }
func lockExclusive(f *os.File) { lockWait(f, syscall.LOCK_EX) }

// lockWait retries a wait a signal interrupted. Any other failure (a
// filesystem without flock) leaves f unlocked; the ordering lockTargets
// builds on the lock then rests on its removal check alone.
func lockWait(f *os.File, how int) {
	for syscall.Flock(int(f.Fd()), how) == syscall.EINTR {
	}
}

// unlinked reports whether f's file has lost its last name: a
// compaction has removed the pack.
func unlinked(f *os.File) bool {
	var st syscall.Stat_t
	return syscall.Fstat(int(f.Fd()), &st) == nil && st.Nlink == 0
}
