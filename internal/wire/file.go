package wire

import (
	"os"
	"path/filepath"
)

// WriteFile stores an encoded container at path so that a reader, or a
// process killed at any point, sees the complete old file or the complete
// new one: a temporary file in the same directory, renamed into place. The
// file keeps CreateTemp's 0600 mode: images hold user data.
func WriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
