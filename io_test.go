package chl_test

import (
	"bytes"
	"testing"

	chl "repro"
)

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("CHFX"),                     // truncated after magic
		[]byte("NOPE\x00\x00\x00\x00"),     // wrong magic
		[]byte("CHIX\x00\x00\x00\x00"),     // the retired slice-index magic
		[]byte("CHFX\x05\x01\x01\x00\x00"), // truncated inside the section table
	}
	for i, c := range cases {
		if _, err := chl.Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsTruncatedIndex(t *testing.T) {
	g := chl.GenerateScaleFree(40, 3, 1)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{2, 3, 4} {
		cut := len(full) / frac
		if _, err := chl.Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	ix, err := chl.Build(g, chl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.chl"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := chl.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 36; u += 5 {
		for v := 0; v < 36; v += 7 {
			if ix.Query(u, v) != back.Query(u, v) {
				t.Fatalf("mismatch at (%d,%d)", u, v)
			}
		}
	}
	if _, err := chl.LoadFile(t.TempDir() + "/missing.chl"); err == nil {
		t.Fatal("missing file accepted")
	}
}
