package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint reports that a checkpoint directory holds no complete
// generation (empty, missing, or every generation failed validation — the
// last case as an *InvalidGenerationsError).
var ErrNoCheckpoint = errors.New("ckpt: no complete checkpoint generation")

// InvalidGenerationsError reports a checkpoint directory that holds
// generations of which none validates. It matches ErrNoCheckpoint and every
// validation cause under errors.Is.
type InvalidGenerationsError struct {
	Dir string
	// Skipped holds each generation's OpenSet error, newest first; every
	// one names its generation directory.
	Skipped []error
}

func (e *InvalidGenerationsError) Error() string {
	return fmt.Sprintf("%v in %s: every generation failed validation:\n%v", ErrNoCheckpoint, e.Dir, errors.Join(e.Skipped...))
}

// Unwrap exposes ErrNoCheckpoint and the validation errors.
func (e *InvalidGenerationsError) Unwrap() []error {
	return append([]error{ErrNoCheckpoint}, e.Skipped...)
}

const genPrefix = "gen-"

// GenDirName returns the directory name of generation gen.
func GenDirName(gen uint64) string { return fmt.Sprintf("%s%010d", genPrefix, gen) }

// parseGenDir extracts the generation number from a directory name.
func parseGenDir(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, genPrefix), 10, 64)
	return n, err == nil
}

// Set is one opened, fully validated checkpoint generation.
type Set struct {
	// Dir is the generation directory.
	Dir string
	// Manifest is the validated commit record.
	Manifest *Manifest
	// Skipped holds the OpenSet errors of the newer generations
	// LatestComplete fell back past, newest first; each names its directory.
	Skipped []error
}

// OpenSet opens and validates the generation directory at dir: the MANIFEST
// must decode (magic, version, self-checksum), its generation must match the
// directory name (a renamed or cross-copied directory is a mixed-generation
// set), and every listed file must exist with exactly the recorded size and
// CRC32C. Any violation is an error; nothing panics on corrupt input.
func OpenSet(dir string) (*Set, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", dir, err)
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", dir, err)
	}
	if gen, ok := parseGenDir(filepath.Base(dir)); ok && gen != m.Generation {
		return nil, fmt.Errorf("ckpt: %s: manifest is for generation %d (mixed-generation set)",
			dir, m.Generation)
	}
	for _, f := range m.Files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", dir, err)
		}
		if int64(len(data)) != f.Size {
			return nil, fmt.Errorf("ckpt: %s: %s is %d bytes, manifest records %d (truncated or torn)",
				dir, f.Name, len(data), f.Size)
		}
		if crc := Checksum(data); crc != f.CRC {
			return nil, fmt.Errorf("ckpt: %s: %s checksum mismatch (got %08x, want %08x)",
				dir, f.Name, crc, f.CRC)
		}
	}
	return &Set{Dir: dir, Manifest: m}, nil
}

// Generations lists the generation numbers present under dir (complete or
// not), ascending.
func Generations(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if g, ok := parseGenDir(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// LatestComplete scans dir for generation directories and opens the newest
// one that validates, falling back past incomplete or corrupt generations (a
// crash mid-snapshot, a torn write) and recording why in Set.Skipped.
// ErrNoCheckpoint is returned when dir holds no generation, an
// *InvalidGenerationsError when it holds some but none validates.
func LatestComplete(dir string) (*Set, error) {
	gens, err := Generations(dir)
	if err != nil {
		return nil, err
	}
	var skipped []error
	for i := len(gens) - 1; i >= 0; i-- {
		set, err := OpenSet(filepath.Join(dir, GenDirName(gens[i])))
		if err == nil {
			set.Skipped = skipped
			return set, nil
		}
		skipped = append(skipped, err)
	}
	if len(skipped) > 0 {
		return nil, &InvalidGenerationsError{Dir: dir, Skipped: skipped}
	}
	return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
}

// Open opens a manifest-listed file for reading. Unlisted names are
// rejected: a file without an entry was never committed.
func (s *Set) Open(name string) (io.ReadCloser, error) {
	if _, ok := s.Manifest.File(name); !ok {
		return nil, fmt.Errorf("ckpt: %s has no committed file %q", s.Dir, name)
	}
	return os.Open(filepath.Join(s.Dir, name))
}

// OpenRank opens rank r's state file.
func (s *Set) OpenRank(r int) (io.ReadCloser, error) { return s.Open(RankFileName(r)) }

// OpenWeights opens the consolidated weights file.
func (s *Set) OpenWeights() (io.ReadCloser, error) { return s.Open(WeightsName) }
