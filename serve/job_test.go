package serve

import (
	"errors"
	"strings"
	"testing"

	"dsmnc"
)

func TestParseRequestValid(t *testing.T) {
	cases := []struct {
		in      string
		system  string // expected compiled system name
		ncBytes int
	}{
		{`{"bench":"FFT","system":"base"}`, "base", 0},
		{`{"bench":"Ocean","system":"nc"}`, "nc", 16 << 10},
		{`{"bench":"Radix","system":"vb","nc_bytes":32768}`, "vb", 32 << 10},
		{`{"bench":"LU","system":"vp","pc_frac":5}`, "vpp5", 16 << 10},
		{`{"bench":"Barnes","system":"nc","pc_bytes":524288}`, "ncp", 16 << 10},
		{`{"bench":"FFT","system":"vxp","pc_frac":5}`, "vxp5(t32)", 16 << 10},
		{`{"bench":"FFT","system":"vxp","pc_frac":5,"threshold":64}`, "vxp5(t64)", 16 << 10},
		{`{"bench":"FFT","system":"pc","pc_frac":7}`, "pc7", 0},
		{`{"bench":"FFT","system":"NCD","scale":"test","check":true}`, "NCD", 512 << 10},
		{`{"bench":"FFT","system":"origin","timeout_ms":5000}`, "origin", 0},
	}
	for _, c := range cases {
		req, err := ParseRequest([]byte(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		bench, sys, _, err := req.compile(dsmnc.DefaultOptions())
		if err != nil {
			t.Errorf("%s: compile: %v", c.in, err)
			continue
		}
		if bench == nil || bench.Name != req.Bench {
			t.Errorf("%s: compiled bench %v, want %s", c.in, bench, req.Bench)
		}
		if sys.Name != c.system {
			t.Errorf("%s: compiled system %q, want %q", c.in, sys.Name, c.system)
		}
		if sys.NCBytes != c.ncBytes {
			t.Errorf("%s: NCBytes %d, want %d", c.in, sys.NCBytes, c.ncBytes)
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	cases := []string{
		``,                                     // empty
		`{`,                                    // truncated
		`[]`,                                   // wrong shape
		`{"bench":"FFT","system":"base"}{}`,    // trailing object
		`{"bench":"FFT","system":"base"} true`, // trailing value
		`{"bench":"FFT"}`,                      // missing system
		`{"system":"base"}`,                    // missing bench
		`{"bench":"NoSuch","system":"base"}`,
		`{"bench":"FFT","system":"warp"}`,
		`{"bench":"FFT","system":"base","scale":"galactic"}`,
		`{"bench":"FFT","system":"base","bogus":1}`,         // unknown field
		`{"bench":"FFT","system":"base","shards":2}`,        // removed field
		`{"bench":"FFT","system":"base","nc_bytes":1024}`,   // base takes no NC
		`{"bench":"FFT","system":"nc","nc_bytes":-1}`,       // negative
		`{"bench":"FFT","system":"nc","nc_bytes":99999999}`, // over bound
		`{"bench":"FFT","system":"nc","pc_bytes":1,"pc_frac":5}`,
		`{"bench":"FFT","system":"nc","threshold":32}`, // threshold w/o page cache
		`{"bench":"FFT","system":"pc"}`,                // pc needs pc_frac
		`{"bench":"FFT","system":"vxp"}`,               // vxp needs pc_frac
		`{"bench":"FFT","system":"vxp","pc_frac":5,"pc_bytes":1024}`,
		`{"bench":"FFT","system":"base","timeout_ms":-5}`,
		`{"bench":"FFT","system":"nc","pc_frac":100}`, // over 1/64
	}
	for _, c := range cases {
		if _, err := ParseRequest([]byte(c)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%q: err = %v, want ErrBadRequest", c, err)
		}
	}
	if _, err := ParseRequest([]byte(`{"bench":"` + strings.Repeat("x", MaxRequestBytes) + `"}`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversized body: err = %v, want ErrBadRequest", err)
	}
}

func TestRequestFingerprintCanonical(t *testing.T) {
	a, err := ParseRequest([]byte(`{"bench":"FFT","system":"nc"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the defaults gives the same identity.
	b, err := ParseRequest([]byte(`{"bench":"FFT","system":"nc","nc_bytes":16384,"scale":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("defaulted and explicit requests fingerprint differently: %s vs %s",
			a.Fingerprint(), b.Fingerprint())
	}
	// Timeout is a runtime knob, not identity.
	c, err := ParseRequest([]byte(`{"bench":"FFT","system":"nc","timeout_ms":9999}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("timeout_ms changed the job identity")
	}
	// Different work, different identity.
	d, err := ParseRequest([]byte(`{"bench":"FFT","system":"nc","nc_bytes":32768}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("different nc_bytes share a fingerprint")
	}
}

// FuzzJobRequest is the decoder's robustness contract: any input bytes
// either parse into a request that re-validates and compiles cleanly,
// or fail with an ErrBadRequest-wrapped error — never a panic, never a
// bare error outside the sentinel family.
func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{"bench":"FFT","system":"base"}`,
		`{"bench":"Ocean","system":"nc","nc_bytes":16384,"pc_frac":5}`,
		`{"bench":"Radix","system":"vxp","pc_frac":5,"threshold":64,"scale":"test"}`,
		`{"bench":"LU","system":"vb","pc_bytes":524288,"check":true,"timeout_ms":1000}`,
		`{"bench":"FFT","system":"pc","pc_frac":7}`,
		`{"bench":"","system":""}`,
		`{"bench":"FFT","system":"base","nc_bytes":-99}`,
		`{"nc_bytes":1e99}`,
		`[{"bench":"FFT"}]`,
		`{}`,
		`{"bench":"FFT","system":"base"}garbage`,
		"\x00\xff\xfe",
		`{"bench":"FFT","system":"nc","threshold":4294967295}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	base := dsmnc.DefaultOptions()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("non-sentinel error %v (%[1]T)", err)
			}
			return
		}
		if err := req.validate(); err != nil {
			t.Fatalf("parsed request fails re-validation: %v", err)
		}
		if req.Fingerprint() == "" {
			t.Fatal("parsed request has an empty fingerprint")
		}
		if _, _, _, err := req.compile(base); err != nil {
			t.Fatalf("parsed request fails to compile: %v", err)
		}
	})
}
