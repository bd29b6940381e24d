// Package store persists BrowserFlow state — the fingerprint databases, the
// TDM registry and the audit log — and implements the §4.4 mitigations for
// long-term fingerprint storage: encryption of all fingerprint data at rest
// (AES-256-GCM) and periodic removal of old fingerprints.
package store

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/lsds/browserflow/internal/wal"
)

// SnapshotVersion is the current on-disk format version.
const SnapshotVersion = 1

// magic prefixes encrypted snapshot files so a restore can tell a keyed
// file opened without its key from a plaintext one.
var magic = []byte("BFLOWENC")

// crcTable is the Castagnoli table shared with the WAL framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadKey reports that decryption failed (wrong key or corrupted file).
var ErrBadKey = errors.New("store: cannot decrypt snapshot (wrong key or corrupt file)")

// CorruptSnapshotError reports an integrity failure in a plaintext
// snapshot, pointing at the first offending byte.
type CorruptSnapshotError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("store: snapshot %s corrupt/truncated at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// RetiredFormatError reports an intact state file in a format this build
// no longer reads (framed or bare JSON, written before the BFLOWSNB
// container, or a BFLOWSNB version 2 image). It is deliberately not a
// CorruptSnapshotError: recovery skips corrupt checkpoints in favour of
// older spares and the scrubber quarantines them, and either would
// silently lose the state an old file still holds. See README, "Upgrading".
type RetiredFormatError struct {
	Path   string
	Format string
}

func (e *RetiredFormatError) Error() string {
	return fmt.Sprintf("store: snapshot %s is in the retired %s format; load and re-save it once with a build that still reads it", e.Path, e.Format)
}

// NewerFormatError reports an intact state image whose container version
// is above the one this build writes: a newer build wrote it (a roll-back
// across a format bump). Like RetiredFormatError it is deliberately not a
// CorruptSnapshotError — the file holds state, and skipping or quarantining
// it would lose that state silently. See README, "Upgrading".
type NewerFormatError struct {
	Path    string
	Version int
}

func (e *NewerFormatError) Error() string {
	return fmt.Sprintf("store: snapshot %s is a version %d image and this build reads up to version %d; open it with the build that wrote it", e.Path, e.Version, binVersion)
}

// refusedFormat reports whether err says a state file is intact but in a
// format this build does not read: to be surfaced, never routed around.
func refusedFormat(err error) bool {
	var retired *RetiredFormatError
	var newer *NewerFormatError
	return errors.As(err, &retired) || errors.As(err, &newer)
}

// DeriveKey turns a passphrase into a 32-byte AES-256 key.
func DeriveKey(passphrase string) []byte {
	sum := sha256.Sum256([]byte("browserflow-store-v1:" + passphrase))
	return sum[:]
}

// saveBlobFS atomically and durably installs pre-encoded snapshot bytes
// at path: the temp file is fsynced before the rename and the parent
// directory after, so a crash leaves either the old file or the complete
// new one — never a renamed-but-unwritten file.
func saveBlobFS(fs wal.FS, path string, data []byte) error {
	tmpName, err := writeTemp(fs, path, data)
	if err != nil {
		return err
	}
	if err := fs.Rename(tmpName, path); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("rename snapshot: %w", err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("sync snapshot dir: %w", err)
	}
	return nil
}

// writeTemp writes data to a unique temp file next to path, fsyncing it
// before returning its name.
func writeTemp(fs wal.FS, path string, data []byte) (string, error) {
	dir := filepath.Dir(path)
	for attempt := 0; ; attempt++ {
		var suffix [6]byte
		if _, err := rand.Read(suffix[:]); err != nil {
			return "", fmt.Errorf("temp name: %w", err)
		}
		tmpName := filepath.Join(dir, fmt.Sprintf(".bfstore-%x.tmp", suffix))
		f, err := fs.OpenFile(tmpName, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			if os.IsExist(err) && attempt < 5 {
				continue
			}
			return "", fmt.Errorf("create temp: %w", err)
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			fs.Remove(tmpName)
			return "", fmt.Errorf("write snapshot: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			fs.Remove(tmpName)
			return "", fmt.Errorf("fsync snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			fs.Remove(tmpName)
			return "", fmt.Errorf("close snapshot: %w", err)
		}
		return tmpName, nil
	}
}

// unsealSnapshot strips the BFLOWENC envelope when present, returning
// data unchanged otherwise.
func unsealSnapshot(data, key []byte) ([]byte, error) {
	if len(data) >= len(magic) && string(data[:len(magic)]) == string(magic) {
		if key == nil {
			return nil, ErrBadKey
		}
		return open(data, key)
	}
	return data, nil
}

// seal encrypts plain with AES-256-GCM under key: magic || nonce || ciphertext.
func seal(plain, key []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}
	out := make([]byte, 0, len(magic)+len(nonce)+len(plain)+gcm.Overhead())
	out = append(out, magic...)
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, plain, nil), nil
}

// open decrypts a sealed payload.
func open(data, key []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	body := data[len(magic):]
	if len(body) < gcm.NonceSize() {
		return nil, ErrBadKey
	}
	nonce, ciphertext := body[:gcm.NonceSize()], body[gcm.NonceSize():]
	plain, err := gcm.Open(nil, nonce, ciphertext, nil)
	if err != nil {
		return nil, ErrBadKey
	}
	return plain, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	return gcm, nil
}
