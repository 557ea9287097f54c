package qrec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleService(label string) ServiceRecord {
	return ServiceRecord{
		Label:        label,
		Workloads:    []string{"b0300", "c17"},
		Requests:     120,
		Batches:      40,
		MeanBatch:    3.0,
		ShedRate:     0.01,
		Shed:         1,
		QueueP95MS:   0.42,
		ServiceP50MS: 1.5,
		ServiceP95MS: 4.2,
		ServiceP99MS: 6.8,
		ServiceMaxMS: 9.1,
	}
}

func TestServiceRoundTrip(t *testing.T) {
	f := &ServiceFile{Schema: ServiceSchema}
	f.AddService(sampleService("smoke"))
	f.AddService(sampleService("burst"))
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := WriteService(path, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got ServiceFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != ServiceSchema || len(got.Records) != 2 {
		t.Fatalf("loaded %+v", got)
	}
	// Records survive normalize+encode+decode intact.
	want := sampleService("smoke").normalize()
	var loaded ServiceRecord
	for _, r := range got.Records {
		if r.Label == "smoke" {
			loaded = r
		}
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Errorf("round trip changed the record:\ngot:  %+v\nwant: %+v", loaded, want)
	}
}

func TestServiceEncodeDeterministic(t *testing.T) {
	a := &ServiceFile{Schema: ServiceSchema}
	a.AddService(sampleService("zeta"))
	a.AddService(sampleService("alpha"))
	b := &ServiceFile{Schema: ServiceSchema}
	b.AddService(sampleService("alpha"))
	b.AddService(sampleService("zeta"))
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Error("encoding depends on insertion order")
	}
}
