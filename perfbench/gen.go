package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"multidiag/internal/atpg"
	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/volume"
)

// Input generation (ATPG, defect injection, stream synthesis) is untimed
// and runs in a child process, so neither its heap nor its RSS leaks into
// the measured process. Its output is a directory of plain files — the
// only thing the measured program ever sees.

// manifest describes one generated input directory.
type manifest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Circuit  string `json:"circuit"` // netlist file; its base name is the workload's circuit name
	Patterns string `json:"patterns"`
	// Devices is the device population: cli and serve devices (one
	// datalog file each), or the distinct devices behind the vol stream.
	Devices []deviceInfo `json:"devices"`
	// Stream is the vol JSONL stream; record i repeats device Order[i] on
	// site Sites[i]. Distinct counts the stream's distinct syndromes.
	Stream   string `json:"stream,omitempty"`
	Order    []int  `json:"order,omitempty"`
	Sites    []int  `json:"sites,omitempty"`
	Distinct int    `json:"distinct,omitempty"`
}

// deviceInfo is one injected device: its ground truth and its observed
// behaviour (a datalog file for cli and serve, the failing patterns a vol
// record carries).
type deviceInfo struct {
	Defects []defect.Defect       `json:"defects"`
	Datalog string                `json:"datalog,omitempty"`
	Fails   []volume.PatternFails `json:"fails,omitempty"`
}

// streamRecord is record i of a vol stream.
func streamRecord(workload string, i, site int, dev deviceInfo) *volume.Record {
	return &volume.Record{
		DeviceID: fmt.Sprintf("dev-%06d", i),
		Site:     fmt.Sprintf("site-%d", site),
		Workload: workload,
		Fails:    dev.Fails,
	}
}

// circuitConfig names the generated circuits the workloads run on (the
// same generator settings as the experiment suite's b1000 and b0300).
func circuitConfig(name string) circuits.GenConfig {
	switch name {
	case "b0300":
		return circuits.GenConfig{Name: name, Seed: 300, NumPIs: 16, NumGates: 300, NumPOs: 12}
	default:
		return circuits.GenConfig{Name: "b1000", Seed: 1000, NumPIs: 24, NumGates: 1000, NumPOs: 20}
	}
}

// circuitOf returns the circuit a workload runs on.
func circuitOf(workload string) string {
	if workload == "vol-b0300" {
		return "b0300"
	}
	return "b1000"
}

// ensureInputs returns the input directory for (workload, seed, plan),
// generating it in a child process when it is not cached yet.
func ensureInputs(dataDir, workload string, seed int64, p plan) (string, *manifest, error) {
	dir := filepath.Join(dataDir, "inputs", fmt.Sprintf("%s-s%d-%s", workload, seed, p.key()))
	if m, err := readManifest(dir); err == nil {
		return dir, m, nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".gen-")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(self, "-gen", tmp, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-plan", p.key())
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", nil, fmt.Errorf("generate inputs: %w", err)
	}
	// Keep one input set per workload: a vol stream is ~1 MB per 1000
	// records, and each seed brings its own.
	old, _ := filepath.Glob(filepath.Join(filepath.Dir(dir), workload+"-s*"))
	for _, o := range old {
		os.RemoveAll(o)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", nil, err
	}
	m, err := readManifest(dir)
	return dir, m, err
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// generate writes the inputs of one run into dir (the -gen child).
func generate(dir, workload string, seed int64, p plan) error {
	cname := circuitOf(workload)
	c, pats, err := writeCircuit(dir, cname)
	if err != nil {
		return err
	}
	m := &manifest{Workload: workload, Seed: seed, Circuit: cname + ".bench", Patterns: "patterns.txt"}
	if workload == "vol-b0300" {
		err = writeStream(dir, m, c, pats, seed, p)
	} else {
		err = writeDevices(dir, m, c, pats, seed, p.warm, p.devices)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644)
}

// writeCircuit generates the named circuit and its ATPG test set as
// .bench and pattern text. Devices are injected into the circuit parsed
// back from those bytes, so ground-truth net IDs match what every
// consumer of the files sees.
func writeCircuit(dir, name string) (*netlist.Circuit, []sim.Pattern, error) {
	gen, err := circuits.Generate(circuitConfig(name))
	if err != nil {
		return nil, nil, err
	}
	var nb bytes.Buffer
	if err := netlist.WriteBench(&nb, gen); err != nil {
		return nil, nil, err
	}
	c, err := netlist.ParseBench(name, bytes.NewReader(nb.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	res, err := atpg.Generate(c, atpg.Config{Seed: 7})
	if err != nil {
		return nil, nil, err
	}
	var pb bytes.Buffer
	if err := tester.WritePatterns(&pb, res.Patterns); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".bench"), nb.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "patterns.txt"), pb.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	return c, res.Patterns, nil
}

// mix derives an independent sampling seed for (seed, device, attempt).
func mix(seed int64, i, attempt int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9 ^ uint64(attempt)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return int64(x >> 1)
}

// makeDevice derives device i from (seed, i) alone: a population is
// prefix-stable, so a longer run's devices extend a shorter run's. A
// sample that cannot be injected or that no pattern detects is redrawn.
func makeDevice(c *netlist.Circuit, pats []sim.Pattern, seed int64, i, ndefects int) ([]defect.Defect, *tester.Datalog, error) {
	for attempt := 0; attempt < 100; attempt++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: mix(seed, i, attempt), NumDefects: ndefects})
		if err != nil {
			return nil, nil, err
		}
		dev, err := defect.Inject(c, ds)
		if err != nil {
			continue
		}
		log, err := tester.ApplyTest(c, dev, pats)
		if err != nil {
			return nil, nil, err
		}
		if len(log.Fails) > 0 {
			return ds, log, nil
		}
	}
	return nil, nil, fmt.Errorf("device %d: no detectable injection in 100 draws", i)
}

// writeDevices writes warm warm-up devices followed by n timed cli/serve
// devices. Timed device i derives from (seed, i) and carries 1 + i%5
// defects under the default stuck/open/bridge mix, so every population
// prefix has the same defect-count mix. The warm-up devices are the same
// for every seed (negative indices under seed 0), so set-up time does
// not depend on the seed, and they never coincide with a timed device.
func writeDevices(dir string, m *manifest, c *netlist.Circuit, pats []sim.Pattern, seed int64, warm, n int) error {
	if err := os.Mkdir(filepath.Join(dir, "dev"), 0o755); err != nil {
		return err
	}
	m.Devices = make([]deviceInfo, warm+n)
	return parallel(warm+n, func(i int) error {
		s, j, ndef := seed, i-warm, 1+(i-warm)%5
		if i < warm {
			s, j, ndef = 0, -1-i, 1+i%5
		}
		ds, log, err := makeDevice(c, pats, s, j, ndef)
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if err := tester.WriteDatalog(&b, log); err != nil {
			return err
		}
		name := filepath.Join("dev", fmt.Sprintf("%05d.log", i))
		m.Devices[i] = deviceInfo{Defects: ds, Datalog: name}
		return os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644)
	})
}

// volRepeat is the share of vol records that repeat an earlier device.
const volRepeat = 0.995

// writeStream writes the vol JSONL stream: p.records records over
// round(records × (1−volRepeat)) distinct 3-defect devices on four sites.
func writeStream(dir string, m *manifest, c *netlist.Circuit, pats []sim.Pattern, seed int64, p plan) error {
	uniques := int(float64(p.records)*(1-volRepeat) + 0.5)
	if uniques < 1 {
		uniques = 1
	}
	fps := make([]volume.Fingerprint, uniques)
	m.Devices = make([]deviceInfo, uniques)
	err := parallel(uniques, func(u int) error {
		ds, log, err := makeDevice(c, pats, seed, u, 3)
		if err != nil {
			return err
		}
		m.Devices[u].Defects = ds
		for _, pat := range log.FailingPatterns() {
			m.Devices[u].Fails = append(m.Devices[u].Fails, volume.PatternFails{Pattern: pat, POs: log.Fails[pat].Members()})
		}
		fps[u] = volume.FingerprintDatalog(c.Name, log)
		return nil
	})
	if err != nil {
		return err
	}
	distinct := map[volume.Fingerprint]bool{}
	for _, fp := range fps {
		distinct[fp] = true
	}
	// New syndromes trickle in over the whole stream: record i introduces
	// the next device with probability (devices left)/(records left) and
	// otherwise repeats a device already seen.
	r := rand.New(rand.NewSource(mix(seed, -1, 0)))
	order := make([]int, p.records)
	seen := 0
	for i := range order {
		if seen == 0 || r.Intn(p.records-i) < uniques-seen {
			order[i] = seen
			seen++
		} else {
			order[i] = r.Intn(seen)
		}
	}
	sites := make([]int, p.records)
	var b bytes.Buffer
	for i, u := range order {
		sites[i] = r.Intn(4)
		line, err := json.Marshal(streamRecord(c.Name, i, sites[i], m.Devices[u]))
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	m.Stream, m.Order, m.Sites, m.Distinct = "stream.jsonl", order, sites, len(distinct)
	return os.WriteFile(filepath.Join(dir, m.Stream), b.Bytes(), 0o644)
}
