// Package history is the perf-history subsystem: an append-only
// archive of run-ledger records (one obs.RunRecord per benchmark run),
// a trend analyzer that flags any change in a price and a step or slow
// drift in host cost across a record series, and a deterministic
// self-contained HTML/SVG report.
//
// The archive layout is one JSON file per run under a directory
// (conventionally baselines/history/), named
//
//	<seq>-<commit>-<experiment>.json
//
// where <seq> is a zero-padded sequence number so lexicographic file
// order matches append order even for records without timestamps.
package history

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcio/internal/obs"
)

// RecordFile is one archived run ledger plus where it came from.
type RecordFile struct {
	Path string
	Rec  *obs.RunRecord
}

// Time returns the record's timestamp (0 for v1 records).
func (r RecordFile) Time() int64 { return r.Rec.UnixNanos }

// Append writes rec into the archive directory dir under the next
// sequence number, creating dir if needed. The file is created
// exclusively — an existing file with the chosen name is an error, the
// archive is append-only by construction. Returns the path written.
func Append(dir string, rec *obs.RunRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	seq, err := nextSeq(dir)
	if err != nil {
		return "", err
	}
	commit := "local"
	if rec.Host != nil && rec.Host.GitCommit != "" {
		commit = rec.Host.GitCommit
	}
	path := filepath.Join(dir, fmt.Sprintf("%05d-%s-%s.json", seq, commit, rec.Name))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", fmt.Errorf("history: archive append: %w", err)
	}
	if err := obs.WriteRunRecord(f, rec); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// nextSeq scans dir for the highest <seq>- file prefix and returns the
// successor, starting at 1 in an empty archive.
func nextSeq(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, e := range entries {
		name := e.Name()
		dash := strings.IndexByte(name, '-')
		if dash <= 0 {
			continue
		}
		n, err := strconv.Atoi(name[:dash])
		if err != nil {
			continue
		}
		if n > max {
			max = n
		}
	}
	return max + 1, nil
}

// Expand resolves each argument into ledger file paths: a directory
// yields its *.json entries (lexicographic), a glob pattern its
// matches (sorted), anything else passes through as a literal path.
// The order of the arguments is preserved.
func Expand(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		switch {
		case err == nil && st.IsDir():
			matches, err := filepath.Glob(filepath.Join(a, "*.json"))
			if err != nil {
				return nil, err
			}
			sort.Strings(matches)
			if len(matches) == 0 {
				return nil, fmt.Errorf("history: no *.json records in directory %s", a)
			}
			paths = append(paths, matches...)
		case err == nil:
			paths = append(paths, a)
		default:
			// Not a file on disk: try it as a glob before giving up.
			matches, gerr := filepath.Glob(a)
			if gerr != nil || len(matches) == 0 {
				return nil, fmt.Errorf("history: %s matches no record file", a)
			}
			sort.Strings(matches)
			paths = append(paths, matches...)
		}
	}
	return paths, nil
}

// Load reads every path as a run-ledger record and returns the series
// sorted oldest-first by record timestamp (stable, so records without
// timestamps — v1 — keep their file order). Records that fail to parse
// as JSON are skipped with a warning line on warn rather than aborting
// the series; a record with a version newer than this binary supports
// is a hard error naming the file, as are unreadable paths.
func Load(paths []string, warn io.Writer) ([]RecordFile, error) {
	var recs []RecordFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rec, err := obs.ParseRunRecord(b)
		if err != nil {
			if errors.Is(err, obs.ErrNewerVersion) {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if warn != nil {
				fmt.Fprintf(warn, "history: skipping %s: %v\n", p, err)
			}
			continue
		}
		recs = append(recs, RecordFile{Path: p, Rec: rec})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time() < recs[j].Time() })
	return recs, nil
}

// LoadArgs is Expand followed by Load — the loader behind `mcio trend`,
// `mcio report` and the directory form of `mcio diff`.
func LoadArgs(args []string, warn io.Writer) ([]RecordFile, error) {
	paths, err := Expand(args)
	if err != nil {
		return nil, err
	}
	return Load(paths, warn)
}
