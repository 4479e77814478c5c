package obs

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes an artifact via a temp file in the destination
// directory followed by an atomic rename, so a crash mid-write can never
// leave a truncated file at path — readers see either the old artifact or
// the complete new one. All obs artifact writers (-metrics-out,
// -trace-out, ledger files) go through it. The artifact is readable by
// everyone (mode 0644), as os.WriteFile would leave it under the usual
// umask; os.CreateTemp alone would leave it 0600.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the rename path owns cleanup now
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
