package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"wilocator/internal/roadnet"
)

func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorpusShape pins the corpus contract the issue demands: at least six
// uniquely named seeded scenarios, at least three generated city forms, and
// the day-scale, churn and adversarial members present.
func TestCorpusShape(t *testing.T) {
	corpus := Corpus()
	if len(corpus) < 6 {
		t.Fatalf("corpus has %d scenarios, want >= 6", len(corpus))
	}
	names := map[string]bool{}
	forms := map[roadnet.CityForm]bool{}
	seeds := map[uint64]bool{}
	var dayScale, churn, adversarial, core int
	for _, s := range corpus {
		if names[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		if seeds[s.Seed] {
			t.Errorf("scenario %q reuses seed %d", s.Name, s.Seed)
		}
		seeds[s.Seed] = true
		if s.City.Form != roadnet.CityVancouver {
			forms[s.City.Form] = true
		}
		sd := s.withDefaults()
		if sd.EndHour-sd.StartHour >= 12 {
			dayScale++
		}
		if len(s.Churn) > 0 {
			churn++
		}
		if !s.Adversary.isZero() {
			adversarial++
		}
		if s.Core() {
			core++
		}
	}
	if len(forms) < 3 {
		t.Errorf("corpus uses %d generated city forms, want >= 3", len(forms))
	}
	if dayScale == 0 || churn == 0 || adversarial == 0 {
		t.Errorf("corpus missing members: dayScale=%d churn=%d adversarial=%d", dayScale, churn, adversarial)
	}
	if core < 3 {
		t.Errorf("corpus has %d core (-short tier) scenarios, want >= 3", core)
	}
	if _, ok := ByName("grid-burst"); !ok {
		t.Error("ByName cannot find grid-burst")
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("ByName found a scenario that does not exist")
	}
}

// TestRunDeterministic is the engine's own replay-equivalence check: two
// independent Run calls over one Spec must render byte-identical Results —
// including the churn scenario, whose runs mutate (their own fresh copy of)
// the deployment.
func TestRunDeterministic(t *testing.T) {
	for _, name := range []string{"grid-burst", "grid-churn"} {
		t.Run(name, func(t *testing.T) {
			spec := MustByName(name)
			a, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			ja, jb := encodeResult(t, a), encodeResult(t, b)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("two runs of %s differ (%d vs %d bytes)", name, len(ja), len(jb))
			}
		})
	}
}

// TestCompileSeedSensitivity pins that the seed actually reaches the event
// stream: two seeds yield different streams, one seed yields the same.
func TestCompileSeedSensitivity(t *testing.T) {
	spec := MustByName("grid-burst")
	a, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed compiled to %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if !a.Events[i].Deliver.Equal(b.Events[i].Deliver) || a.Events[i].Report.PhoneID != b.Events[i].Report.PhoneID {
			t.Fatalf("same seed diverges at event %d", i)
		}
	}
	spec.Seed++
	spec.City.Seed++
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) == len(a.Events) && len(c.Events) > 0 &&
		c.Events[len(c.Events)-1].Report.Scan.Time.Equal(a.Events[len(a.Events)-1].Report.Scan.Time) &&
		len(c.Events[0].Report.Scan.Readings) == len(a.Events[0].Report.Scan.Readings) {
		t.Error("seed change left the event stream suspiciously identical")
	}
}

// TestChurnScenarioRebuilds pins the churn contract: one rebuild per wave,
// a bumped serving generation, dead APs actually deactivated, and the
// service still locating after the last wave.
func TestChurnScenarioRebuilds(t *testing.T) {
	spec := MustByName("grid-churn")
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Waves) != len(spec.Churn) {
		t.Fatalf("compiled %d waves from %d churn specs", len(c.Waves), len(spec.Churn))
	}
	seen := map[string]bool{}
	for _, w := range c.Waves {
		if len(w.Dead) == 0 {
			t.Fatal("wave kills no APs")
		}
		for _, b := range w.Dead {
			if seen[string(b)] {
				t.Fatalf("AP %s dies in two waves", b)
			}
			seen[string(b)] = true
		}
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rebuilds, uint64(len(spec.Churn)); got != want {
		t.Errorf("rebuilds = %d, want %d", got, want)
	}
	if got, want := res.Generation, uint64(1+len(spec.Churn)); got != want {
		t.Errorf("generation = %d, want %d", got, want)
	}
	if res.ByKind[string(KindClean)].Located == 0 {
		t.Error("no fixes at all in the churn scenario")
	}
	if res.Metrics[`wilocator_rebuilds_total{result="ok"}`] != uint64(len(spec.Churn)) {
		t.Errorf("rebuild metric = %d, want %d",
			res.Metrics[`wilocator_rebuilds_total{result="ok"}`], len(spec.Churn))
	}
}

// TestDeviceScenarioStillTracks pins that the ±10 dB device-model scenario
// keeps producing fixes: rank-based positioning is the paper's answer to
// device heterogeneity, so a biased fleet must not collapse the fix rate.
func TestDeviceScenarioStillTracks(t *testing.T) {
	res, err := Run(MustByName("radial-device"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanFixRate < 0.5 {
		t.Errorf("device-model scenario fix rate %.2f, want >= 0.5", res.CleanFixRate)
	}
	if res.PositionError.N == 0 {
		t.Error("no position-error samples")
	}
}

// eventHash digests a compiled world's street map, event stream and churn
// schedule.
func eventHash(c *Compiled) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, rt := range c.Net.Routes() {
		h.Write([]byte(rt.ID()))
		for _, seg := range rt.Segments() {
			put(int64(seg))
		}
	}
	for _, ev := range c.Events {
		put(ev.Deliver.UnixNano())
		put(int64(ev.Seq))
		put(int64(ev.BusIdx))
		h.Write([]byte(ev.Kind))
		b, err := json.Marshal(ev.Report)
		if err != nil {
			panic(err) // api.Report is plain data
		}
		h.Write(b)
	}
	for _, wv := range c.Waves {
		put(wv.At.UnixNano())
		for _, d := range wv.Dead {
			h.Write([]byte(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompileTwiceSameEvents compiles every corpus spec repeatedly in one
// process and requires identical event hashes. Go randomises map iteration
// order per map, so a generator that ranges over a map while assigning IDs
// or drawing random numbers shows up here, most likely within one run,
// instead of as an intermittently red golden.
func TestCompileTwiceSameEvents(t *testing.T) {
	const compiles = 6
	for _, spec := range Corpus() {
		t.Run(spec.Name, func(t *testing.T) {
			var first string
			for i := 0; i < compiles; i++ {
				c, err := Compile(spec)
				if err != nil {
					t.Fatal(err)
				}
				h := eventHash(c)
				if i == 0 {
					first = h
				} else if h != first {
					t.Fatalf("compile %d of %s differs from the first: event hash %s vs %s", i+1, spec.Name, h[:16], first[:16])
				}
			}
		})
	}
}
