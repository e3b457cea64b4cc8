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
		[]byte("CHFX\x05\x02\x01\x00\x00"), // truncated inside the section table
		[]byte("CHFX\x05\x01\x01\x00"),     // the retired slice encoding
	}
	for i, c := range cases {
		if _, err := chl.LoadFlat(bytes.NewReader(c)); err == nil {
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
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{2, 3, 4} {
		cut := len(full) / frac
		if _, err := chl.LoadFlat(bytes.NewReader(full[:cut])); err == nil {
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
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.flat"
	if err := fx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	heap, err := chl.LoadFlatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := chl.OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for u := 0; u < 36; u += 5 {
		for v := 0; v < 36; v += 7 {
			if want := ix.Query(u, v); heap.Query(u, v) != want || mapped.Query(u, v) != want {
				t.Fatalf("mismatch at (%d,%d)", u, v)
			}
		}
	}
	for _, open := range []func(string) (*chl.FlatIndex, error){chl.LoadFlatFile, chl.OpenFlat} {
		if _, err := open(t.TempDir() + "/missing.flat"); err == nil {
			t.Fatal("missing file accepted")
		}
	}
}
