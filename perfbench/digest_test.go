package main

import (
	"strings"
	"testing"
)

func TestNormalizeHeadersStripsTimingOnly(t *testing.T) {
	in := "## fig10  (12.3s)\n\n### Figure 10 (top) — energy (1.0s)\n\n| a | b |\n## sens-l1range  (0.0s)\n\nrow with (4.5s) inside\n"
	want := "## fig10\n\n### Figure 10 (top) — energy (1.0s)\n\n| a | b |\n## sens-l1range\n\nrow with (4.5s) inside\n"
	if got := normalizeHeaders(in); got != want {
		t.Errorf("normalizeHeaders:\n%q\nwant\n%q", got, want)
	}
}

func TestTableDigestIgnoresTiming(t *testing.T) {
	a := tableDigest("## fig10  (4.1s)\n\n| x |\n")
	b := tableDigest("## fig10  (17.0s)\n\n| x |\n")
	c := tableDigest("## fig10  (4.1s)\n\n| y |\n")
	if a != b {
		t.Error("digests differ only by timing but do not match")
	}
	if a == c {
		t.Error("different tables share a digest")
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("digest %q is not hex SHA-256", a)
	}
}

func TestWitnessStoreCatchesDrift(t *testing.T) {
	ws := witnessStore{dir: t.TempDir()}
	drift, err := ws.checkAndRecord("fig10", 7, "bin", map[string]string{"digest": "aa", "core.refs": "10"})
	if err != nil || len(drift) != 0 {
		t.Fatalf("first run: drift %v, err %v", drift, err)
	}
	// The replay workload adds a key and agrees on the shared ones.
	drift, err = ws.checkAndRecord("fig10", 7, "bin", map[string]string{"digest": "aa", "tracec.compiles": "32"})
	if err != nil || len(drift) != 0 {
		t.Fatalf("agreeing run: drift %v, err %v", drift, err)
	}
	drift, err = ws.checkAndRecord("fig10", 7, "bin", map[string]string{"core.refs": "11", "tracec.compiles": "32"})
	if err != nil || len(drift) != 1 || !strings.Contains(drift[0], "core.refs") {
		t.Fatalf("drifting run: drift %v, err %v", drift, err)
	}
	// Another seed, or another binary, starts afresh.
	for _, c := range []struct {
		seed int64
		bin  string
	}{{8, "bin"}, {7, "other"}} {
		drift, err = ws.checkAndRecord("fig10", c.seed, c.bin, map[string]string{"core.refs": "11"})
		if err != nil || len(drift) != 0 {
			t.Errorf("seed %d binary %s: drift %v, err %v", c.seed, c.bin, drift, err)
		}
	}
}

func TestWitnessGroupSharesFig10(t *testing.T) {
	if witnessGroup("fig10-live") != witnessGroup("fig10-replay") {
		t.Error("fig10-live and fig10-replay must share their witnesses")
	}
	if witnessGroup("all-short") == witnessGroup("fig10-live") {
		t.Error("all-short shares fig10's witnesses")
	}
}

func TestCheckPinned(t *testing.T) {
	pin := pinnedDigests["fig10"][defaultSeed]
	if err := checkPinned("fig10-replay", defaultSeed, pin); err != nil {
		t.Errorf("pinned digest rejected: %v", err)
	}
	if err := checkPinned("fig10-live", defaultSeed, strings.Repeat("0", 64)); err == nil {
		t.Error("a wrong digest for a pinned seed passed")
	}
	if err := checkPinned("fig10-live", 99, strings.Repeat("0", 64)); err != nil {
		t.Errorf("an unpinned seed was checked: %v", err)
	}
}
