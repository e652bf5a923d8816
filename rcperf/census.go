package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/compile"
	"rcons/internal/engine"
	"rcons/internal/obs"
	"rcons/internal/spec"
)

// censusDigests are the SHA-256 digests of the encoded census artifact
// of the full-size census-cold run, for seeds 0 to 63. A seed listed
// here must reproduce its digest; any other seed must reproduce the
// digest of the run's own first census. Either way the sampled rows must
// match the interpreted engine.
var censusDigests = map[int64]string{
	0:  "4400893256286d12ca08c4b686a7ceb69ff7bda6fe5d0d0dbe359e703615b1d8",
	1:  "e5ba0fcc5c2bba01bec1798a1c45ce7ea1b8db4fbb687529269bf646306bed36",
	2:  "fc9811503790b0cfb30e9c24f9c1da18f13486aecd746e63188f902bcdf540b4",
	3:  "7cb9db008ff9f7bd95df351b5cbd44563cf3982216ecb48f4ffb592e519fd896",
	4:  "57fc944fc1fea5515db564baac47eb169b217f704c387c376880f68c4e37def7",
	5:  "7692e7201389911f0e18a70c5e1b8dbff41e91d6363eb20aebd8fa03a6f9b274",
	6:  "a0fc3bf92122fbf7afcf04c59c8c5738063da2ef4115ef3a0458ddf1995f7b1a",
	7:  "2257dd7ea84faa7b68be566bca66d9c3040fbd3e09d92c11d993602803a97cd3",
	8:  "b9db57d2005b7c18a8afd75be7e7c2b1780781055f72177bf5e9813baf18cd63",
	9:  "5a31e7fc98c097716f9a6d37919776ccb067206dd2ccbe8495e40f954403151b",
	10: "789811f42920af0d209117e52460a04c0a16da4cd3e721fbeadbf9ab95fb3dec",
	11: "ef5f214f3bbf8a01e74047247ed1fd3759ab1d572fa225db59cbac37323d3212",
	12: "0e1724fe17cade91189738c56d936ca2894a8f216e0ddddc32753f63a745528c",
	13: "d379bced12f167a7af56a20cb7d11cc75c50d047bda3bd1ef6245e13243df1ee",
	14: "05f88a723d11da73d70676d52be18a1495804abe4d4841f0741095ed2cae49c0",
	15: "f101564a850b4fa056ca5ba9851d55b3b476b939e0508c2ed56d2a8ed6e79041",
	16: "2e5016c32249c1ab559566cae53e74f15a55f2040b19bf6e1af57417fb1b9156",
	17: "574d7db336e6f4cf63a97a457550a94cb68d4b2caa26a628db69309cd90ac5c9",
	18: "32c6e38c2745c7bb43c4aad61d31eebc66363fdbd461922e5105d3bc01cf1362",
	19: "22d10bfd65865f0e740468ce251e058c23d59210e326e772ae5edc3d66509ad9",
	20: "a01b806913052e633b76c5fb5045f31fd09cbc9b21aa864b8ba8feb0285b01cc",
	21: "8e03f5b03a92a2e983d320a3792016b14f72a5a901138fd5c9dbfb0b0beae813",
	22: "7905fbb1811f23062155d21ed45c3e23fd7b8d70c3c0a4ccf40ec1bedb234c5f",
	23: "955287c9f6409486f41197ac117f658f1b33303b8c7bc7627d52f48f574cdc22",
	24: "96bcb88070a51bf53520b11243bd76c9247a5e61cc33332ac8cd829268e666d0",
	25: "2aa2e688b0df1ce131bab973cae27a8ba6f046ef6fbbe6e8a82b3eb235fa474f",
	26: "34d6ff9990f9e4846b58bd995378206bd57104ceb093fed8a0c10e3de7a3fbe6",
	27: "0fc10c5cafb27dfe2a77cb64a9914ff23712e9dc8f5d061c80c08569dd4cafe1",
	28: "42e9c0418f4b7265954174dd4ba91bba4597acb2e5bf7b389c3219d824486228",
	29: "32d3c805a91cdce01bf790553b761b86c7b989e1e5770a1691899dc0390a41fd",
	30: "dbeec7910a58c49c1f003f0255d2492ca1992942eb47a067ad3f4f4a2ea095de",
	31: "022e5eecc4e3af5dfbbeb3954ae712386de4bd97afb67cfbae0eb15fa9cbd848",
	32: "71b317a8fe3043e336e02273ac8390b8f42b921518462c4da8c008384db173f5",
	33: "d1a2aaa93fb8752b1cbe258afb66385658193838205abd82ecb7e6c42492c93b",
	34: "86b696323c5b4e0d4d16e38d60c197875dab8b43f3a6d168928f5d28147ad473",
	35: "f6dbf497646c284585a053c5d5d6472da3e85f5794c52457082b678f65d0d568",
	36: "98ae4c67a032b5c7b2a24e955722fec50b9d37cf987a44a889c836126dcf276e",
	37: "4955e7fb22308a4a6dd08be68c20d36d49e31e60152a76852fe4ba2c0be120d7",
	38: "d3d5908aadb7fb5ccb4f7413216569428b41706af0aaf21fab45af3ce2b24788",
	39: "304528f7caf8f33a9b4094f20fa1984081da85d7dc13edc65605601f3324a315",
	40: "b6bb98ec7aa84a6f67114c75b6a02231f48a6601d8175f833f3ebb2935c97055",
	41: "9c233bd8af0dc0dde776bf3208b3fcf7fbac3e4a619508084c4c807e61b1d818",
	42: "7544faef9ba92b8a736c74fd7dc9d7885b92a65a20e8af4cd6cd8fcd37e7d096",
	43: "608797c055c2520c56fa083f07d215e0b67fbb2ea0b5718aab520a9ddefb47d8",
	44: "4d8d6aa5d1ef805aaff9d30147ca46b0bb8f7f80da020e2f15bab3b70495bda9",
	45: "91c04d5fe5cf88f194e481d8f57c3a45923eb3956ec4ecb0c9744aad5f0563f1",
	46: "18f921e150c74b51f39d14768869b50cee7d468ffe79e3c79da8fbadcd562e70",
	47: "d417eb21fefd48df9fe711df389b94e28b5c061c5b40e78f709de0f276c88673",
	48: "d4bc7defa2473283efcdca212033c6a65ba6fd1b56b282198db34666f13065eb",
	49: "6e36a915352ee2ddec6b672836e3c66f1f4d1e771586dcc5e1ecdb89df51f38c",
	50: "3edce81c11bbf55e9a0a43b4412594e47040599c6ddda55f725734b28abb049e",
	51: "fd567e8c816067cc7c4fc62c859af89c1779b4f3bd0c022c4180a7d9ed4ae5b6",
	52: "2c8069f57c21abd6861ae23a2f46db1169f5cde90ce6b09fbb1126334bfdc336",
	53: "486e34bb44c3cd8449e1eb054cf46b96e73c58ffee590752ffb40390e487afae",
	54: "4063d8460d2274538e303cd7bdca83135873f197e0e561285f5f6d6ff5b2132d",
	55: "a9753870a2eae406fee898bbb564c74e01be282ee451813a30bc75f1a1e29a61",
	56: "1fb7d5843d49d7faae592be224a88181d0087e99c8c7eca3f5178bcbce01d8a4",
	57: "325017ea147fe8148b90742a06e64071f18286f7079d0d42bb7522d9da60992b",
	58: "a69cc944924a97a274af028430de8d29a585fa16221c518288c187b73840c1a9",
	59: "65b0ce2170a75287c3b17dec913707a28f8e718dcb034a8bceb4e462ceabd7ff",
	60: "b603f5704fc825aeffcdea197052841df011febd6e8f3b9b0c83e1e06dd215dc",
	61: "95130e11c4dd4003a9bd876719e8c74d0b302c2605cfc04b36a641a696ce62fa",
	62: "8dcfcef824c4423389fa4ad30e2358ec61c8ed3cf7b5891b05611e131c7c3b2f",
	63: "c9df6f983dab2fc92a14beaef8b9bdff852eec2838a8aa88a9e0cb30c4baf86f",
}

func censusOptions(e *env, eng *engine.Engine) census.Options {
	return census.Options{
		Bounds:  e.cfg.size.censusBounds,
		Random:  e.cfg.size.censusRandom,
		Seed:    e.cfg.seed,
		Limit:   limit,
		Workers: runtime.GOMAXPROCS(0),
		Engine:  eng,
	}
}

// censusItem is one distinct generated type, under its census row key.
type censusItem struct {
	key string
	typ spec.Type
}

// censusInputs regenerates the census's candidates the way census.Run
// does (exhaustive block first, then the seeded random tables, deduped
// by canonical key) so the replay classifies the same types. enumerated
// counts the leading items that come from the exhaustive block.
func censusInputs(o census.Options) (items []censusItem, enumerated, candidates int, err error) {
	seen := map[string]bool{}
	add := func(key string, t spec.Type) {
		candidates++
		if !seen[key] {
			seen[key] = true
			items = append(items, censusItem{key: key, typ: t})
		}
	}
	if _, _, err := atlas.Enumerate(o.Bounds, func(key string, t *atlas.Table) bool {
		add(key, t)
		return true
	}); err != nil {
		return nil, 0, 0, err
	}
	enumerated = len(items)
	rb := census.DefaultRandomBounds
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Random; i++ {
		states := 2 + rng.Intn(rb.States-1)
		ops := 1 + rng.Intn(rb.Ops)
		resps := 1 + rng.Intn(rb.Resps)
		canon, key, ok := atlas.Random(rng, states, ops, resps).CanonicalWithKey()
		if !ok {
			return nil, 0, 0, fmt.Errorf("random table %dx%dx%d not canonicalizable", states, ops, resps)
		}
		add(key, canon.WithLabel("atlas:"+key))
	}
	return items, enumerated, candidates, nil
}

// censusReference holds the expected answers of one seed's census.
type censusReference struct {
	items  []censusItem
	sample map[string]verdict // row key → interpreted-engine verdict
	digest string             // "" until the first run records it
}

// newCensusReference generates the inputs and re-derives a seeded
// sample of rows with the interpreted engine (the compiled path's
// parity oracle). The sample draws from the exhaustive block and the
// random tables in proportion to their sizes, so its cost, which the
// few large random tables dominate, varies little from seed to seed.
func newCensusReference(ctx context.Context, e *env) (*censusReference, error) {
	items, enumerated, _, err := censusInputs(censusOptions(e, nil))
	if err != nil {
		return nil, err
	}
	ref := &censusReference{items: items, sample: map[string]verdict{}, digest: e.cfg.size.censusDigests[e.cfg.seed]}
	if e.cfg.censusDigest != "" {
		ref.digest = e.cfg.censusDigest
	}
	interp := engine.New(engine.Options{Interpreted: true})
	rng := rand.New(rand.NewSource(e.cfg.seed))
	n := min(len(items), e.cfg.size.censusSample)
	fromRandom := n * (len(items) - enumerated) / len(items)
	var sample []int
	sample = append(sample, rng.Perm(enumerated)[:n-fromRandom]...)
	for _, i := range rng.Perm(len(items) - enumerated)[:fromRandom] {
		sample = append(sample, enumerated+i)
	}
	for _, i := range sample {
		v, err := classifyVerdict(ctx, interp, items[i].typ)
		if err != nil {
			return nil, fmt.Errorf("interpreted classify %s: %w", items[i].typ.Name(), err)
		}
		ref.sample[items[i].key] = v
	}
	return ref, nil
}

func artifactDigest(a *census.Artifact) (string, error) {
	data, err := a.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// check compares one census artifact with the reference.
func (r *censusReference) check(a *census.Artifact) error {
	if err := a.Verify(false); err != nil {
		return err
	}
	if a.Types != len(r.items) {
		return fmt.Errorf("census classified %d types, the inputs hold %d", a.Types, len(r.items))
	}
	for key, want := range r.sample {
		row, ok := a.Rows[key]
		if !ok {
			return fmt.Errorf("census lacks row %s", key)
		}
		if got := (verdict{row.Cons.Display, row.Rcons.Display}); got != want {
			return fmt.Errorf("row %s: bands %v, interpreted engine says %v", key, got, want)
		}
	}
	digest, err := artifactDigest(a)
	if err != nil {
		return err
	}
	if r.digest == "" {
		r.digest = digest
	} else if digest != r.digest {
		return fmt.Errorf("artifact digest %s, want %s", digest, r.digest)
	}
	return nil
}

// runCensus runs one census on a fresh engine and checks it.
func runCensus(ctx context.Context, e *env, ref *censusReference) (*census.Artifact, time.Duration, error) {
	t0 := time.Now()
	a, err := census.Run(ctx, censusOptions(e, engine.New(engine.Options{})))
	d := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		e.tally.fail("census: %v", err)
		return nil, d, nil
	}
	e.tally.judge("census", ref.check(a))
	return a, d, nil
}

// censusCold: whole censuses on fresh engines, no store, no HTTP.
func censusCold(ctx context.Context, e *env) (metricSet, error) {
	var ref *censusReference
	var setups []float64
	for range e.cfg.size.setupReps {
		t0 := time.Now()
		r, err := newCensusReference(ctx, e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ref = r
	}
	var lat []float64
	var measured time.Duration
	types := 0
	heap := startHeapSampler()
	for measured < e.cfg.seconds || len(lat) < 3 {
		a, d, err := runCensus(ctx, e, ref)
		if err != nil {
			heap.finish()
			return nil, err
		}
		measured += d
		lat = append(lat, ms(d))
		if a != nil {
			types += a.Types
		}
	}
	peak := heap.finish()
	m := metricSet{}
	m.set("setup_s", setupMedian(e, setups), "s")
	m.set("ops_per_s", float64(len(lat))/measured.Seconds(), "1/s")
	m.set("work_per_s", float64(types)/measured.Seconds(), "1/s")
	q := latencySummary(m, lat)
	m.set("peak_heap_mb", peak, "MB")
	fmt.Fprintf(e.log, "rcperf: census-cold runs=%d types=%d digest=%s tail=p%g\n", len(lat), len(ref.items), ref.digest, q*100)
	return m, nil
}

// censusLayers replays the census inputs through atlas, the canonical
// fingerprint, the compiler and a fresh engine, then runs one census for
// the classify share.
func censusLayers(ctx context.Context, e *env, m metricSet) ([]traceDump, error) {
	t0 := time.Now()
	items, _, candidates, err := censusInputs(censusOptions(e, nil))
	if err != nil {
		return nil, err
	}
	m.set("atlas.generate_s", time.Since(t0).Seconds(), "s")
	m.set("atlas.dedup_ratio", float64(len(items))/float64(candidates), "ratio")

	var fps, builds []float64
	fallbacks := 0
	for _, it := range items {
		t0 := time.Now()
		_, ok := engine.CanonicalFingerprint(it.typ, limit)
		fps = append(fps, us(time.Since(t0)))
		e.tally.judge("canonical fingerprint "+it.key, okErr(ok, "not canonicalizable"))
		t0 = time.Now()
		_, err := compile.Compile(it.typ, limit)
		builds = append(builds, us(time.Since(t0)))
		if err != nil {
			fallbacks++
		}
	}
	m.set("engine.canonical_fp.p50_us", median(fps), "us")
	m.set("compile.build.p50_us", median(builds), "us")
	m.set("compile.fallbacks", float64(fallbacks), "count")

	rec := obs.NewRecorder(len(items) + 1)
	tracer := obs.NewTracer(1, rec)
	eng := engine.New(engine.Options{})
	verdicts := make(map[string]verdict, len(items))
	var classify []float64
	sum := time.Duration(0)
	for _, it := range items {
		tctx, span := tracer.StartTrace(ctx, "bench.classify", "", true)
		t0 := time.Now()
		v, err := classifyVerdict(tctx, eng, it.typ)
		d := time.Since(t0)
		span.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			e.tally.fail("classify %s: %v", it.key, err)
			continue
		}
		verdicts[it.key] = v
		classify = append(classify, ms(d))
		sum += d
	}
	dumps := recordedTrees(rec, "census-cold")
	stages := stageStats{}
	for _, d := range dumps {
		stages.fold(d.Spans, true)
	}
	search := stages.get("engine.search")
	m.set("engine.classify_cold.p50_ms", quantile(classify, 0.5), "ms")
	m.set("engine.classify_cold.p99_ms", quantile(classify, 0.99), "ms")
	m.set("engine.search.p50_us", median(search.durUS), "us")
	m.set("engine.search.count", float64(search.count), "count")

	ref, err := newCensusReference(ctx, e)
	if err != nil {
		return nil, err
	}
	a, wall, err := runCensus(ctx, e, ref)
	if err != nil {
		return nil, err
	}
	m.set("census.classify_share", sum.Seconds()/wall.Seconds(), "ratio")
	if a != nil {
		for key, v := range verdicts {
			row := a.Rows[key]
			e.tally.judge("replayed classify "+key, okErr(verdict{row.Cons.Display, row.Rcons.Display} == v, "differs from the census row"))
		}
	}
	return dumps, nil
}

// okErr turns a failed condition into an error.
func okErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s", msg)
}
