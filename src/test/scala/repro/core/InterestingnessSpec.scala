package repro.core

import repro.{PropChecks, SparkSpec}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import org.scalacheck.{Gen, Prop}

class InterestingnessSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  /** 400 rows; category "C" is rare overall but dominates high values, so a
    * filter on value deviates strongly on category.
    */
  private lazy val planted = {
    val rows = (1 to 400).map { i =>
      val cat = if (i % 10 == 0) "C" else if (i % 2 == 0) "A" else "B"
      val v   = if (cat == "C") 90 + i % 10 else i % 80
      (cat, v, i % 5)
    }
    rows.toDF("category", "value", "noise").cache()
  }

  test("filter: KS of the filtered column itself is high") {
    val step = Step(Seq(planted), FilterOp("value > 85"))
    val s    = Interestingness.score(step, "value").get
    assert(s > 0.8)
  }

  test("filter: planted correlated column scores higher than noise") {
    val step = Step(Seq(planted), FilterOp("value > 85"))
    val sCat   = Interestingness.score(step, "category").get
    val sNoise = Interestingness.score(step, "noise").get
    assert(sCat > sNoise)
    assert(sCat > 0.5)
  }

  test("filter: a no-op filter scores 0 everywhere") {
    val step = Step(Seq(planted), FilterOp("value >= -1"))
    assert(step.outputAttrs.forall(a => Interestingness.score(step, a).get === 0.0))
  }

  test("groupby: diversity equals CV of the output column") {
    val step = Step(Seq(planted), GroupByOp(Seq("category"), Seq(AggSpec("mean", "value", "mean_value"))))
    val s    = Interestingness.score(step, "mean_value").get
    assert(math.abs(s - Diversity.cv(step.output, "mean_value")) < 1e-12)
    assert(s > 0)
  }

  test("groupby: non-numeric output column gets no diversity score") {
    val step = Step(Seq(planted), GroupByOp(Seq("category"), Seq(AggSpec("count", "*", "cnt"))))
    assert(Interestingness.score(step, "category") === None)
    assert(Interestingness.score(step, "cnt").isDefined)
  }

  test("join: attribute provenance picks the owning input for the KS reference") {
    val dim  = Seq((1, "x"), (2, "y"), (3, "z")).toDF("k", "name")
    val fact = Seq(1, 1, 1, 2).toDF("k")
    val step = Step(Seq(dim, fact), JoinOp("k", "k", "dim_", "fact_"))
    // dim_name: 'x' goes from 1/3 of dim to 3/4 of the join — strong deviation
    val s = Interestingness.score(step, "dim_name").get
    assert(s > 0.3)
    // unknown attribute → None
    assert(Interestingness.score(step, "nope") === None)
  }

  test("union: score is the max KS across the input dataframes") {
    val a = Seq(1, 1, 1, 1).toDF("v") // far from the union
    val b = Seq(9, 9, 9, 9).toDF("v")
    val step = Step(Seq(a, b), UnionOp())
    val expectedA = Ks.statistic(a, step.output, "v")
    val expectedB = Ks.statistic(b, step.output, "v")
    assert(math.abs(Interestingness.score(step, "v").get - math.max(expectedA, expectedB)) < 1e-12)
  }

  test("scores: computes every output attribute, skipping inapplicable ones") {
    val step = Step(Seq(planted), GroupByOp(Seq("category"),
      Seq(AggSpec("mean", "value", "m"), AggSpec("count", "*", "c"))))
    val scores = Interestingness.scores(step, step.outputAttrs)
    assert(scores.keySet === Set("m", "c")) // 'category' is non-numeric
  }

  test("scores: the partition label column is never scored") {
    val p    = Partition.frequency(planted, "category", 2)
    val step = Step(Seq(p.labeled), FilterOp("value > 85"))
    val scores = Interestingness.scores(step, step.output.columns.toSeq)
    assert(!scores.contains(Partition.LabelCol))
  }

  test("sampling: a sample larger than the data reproduces exact scores") {
    val step  = Step(Seq(planted), FilterOp("value > 85"))
    val exact = Interestingness.scores(step, Seq("category", "value"))
    val samp  = Interestingness.scores(step, Seq("category", "value"), sampleRows = Some(100000L))
    assert(exact.keySet === samp.keySet)
    exact.foreach { case (a, s) => assert(math.abs(s - samp(a)) < 1e-12, a) }
  }

  test("sampling: a moderate sample approximates exact scores") {
    val big  = spark.range(20000).selectExpr("id % 100 as v", "cast(id % 7 as string) as c").cache()
    val step = Step(Seq(big), FilterOp("v >= 90"))
    val exact = Interestingness.scores(step, Seq("v"))("v")
    val samp  = Interestingness.scores(step, Seq("v"), sampleRows = Some(5000L))("v")
    assert(math.abs(exact - samp) < 0.05, s"exact=$exact sampled=$samp")
  }

  test("Sampling.uniform caps the row count and is deterministic") {
    val df = spark.range(10000).toDF("id")
    val s1 = Sampling.uniform(df, 1000, seed = 5)
    val s2 = Sampling.uniform(df, 1000, seed = 5)
    assert(s1.count() <= 1000)
    assert(s1.count() === s2.count())
    assert(Sampling.uniform(df, 20000).count() === 10000)
  }

  test("sampling keeps the caller's cached frames cached when no input needs a sample") {
    val df   = spark.range(100).selectExpr("id % 7 as v", "cast(id % 3 as string) as c").cache()
    val step = Step(Seq(df), FilterOp("v > 2"))
    step.output.cache()
    df.count(); step.output.count()
    Interestingness.scores(step, Seq("v", "c"), sampleRows = Some(1000L))
    assert(df.storageLevel !== StorageLevel.NONE)
    assert(step.output.storageLevel !== StorageLevel.NONE)
    Fedex.explain(step, FedexConfig(nSets = Seq(2), topKColumns = 1, sampleRows = Some(1000L)))
    assert(df.storageLevel !== StorageLevel.NONE)
    assert(step.output.storageLevel !== StorageLevel.NONE)
    step.output.unpersist(); df.unpersist()
  }

  // --------------------------- one aggregation == per-column reference

  private type FactRow = (Int, Option[String], Option[Double], Option[String], Int)

  private val dbl = Gen.frequency(1 -> Gen.const(None), 6 -> Gen.oneOf(Double.NaN, 0.0, -0.0, 1.5,
    -2.25, 3.0, 7.0, Double.PositiveInfinity, Double.NegativeInfinity).map(Some(_)))
  private def str(vs: String*) = Gen.frequency(1 -> Gen.const(None), 5 -> Gen.oneOf(vs).map(Some(_)))

  /** Facts (id, c, v, s, k): few values, so counts tie; nulls, NaN, ±0.0 and
    * ±∞ in v; the id column has as many values as rows.
    */
  private val facts: Gen[Seq[FactRow]] = Gen.choose(0, 14).flatMap(n => Gen.listOfN(n,
    for { c <- str("a", "b", "d"); v <- dbl; s <- str("p", "q"); k <- Gen.choose(0, 3) }
    yield (c, v, s, k))).map(_.zipWithIndex.map { case ((c, v, s, k), i) => (i, c, v, s, k) })

  /** Join dimension (k, u, w): duplicate and unmatched keys. */
  private val dims: Gen[Seq[(Int, Option[String], Option[Double])]] = Gen.choose(0, 6).flatMap(n =>
    Gen.listOfN(n, for { k <- Gen.choose(0, 4); u <- str("m", "n"); w <- dbl } yield (k, u, w)))

  /** Aggregates over v, whose NaN and ±∞ reach sum, mean, max and min. */
  private val aggs = Seq(AggSpec("count", "*", "n"), AggSpec("count", "v", "nv"), AggSpec("sum", "v", "sv"),
    AggSpec("mean", "v", "mv"), AggSpec("max", "v", "xv"), AggSpec("min", "v", "iv"))

  /** A filter (one predicate selects nothing), a join, unions of 2 and 3, and
    * group-bys on a string key and on a (string, int) key pair.
    */
  private val steps: Gen[Seq[(String, Step)]] = for {
    fs   <- Gen.listOfN(3, facts)
    d    <- dims
    pred <- Gen.oneOf("v > 0", "s = 'p' OR v IS NULL", "id % 2 = 0", "id < 0")
  } yield {
    val Seq(f0, f1, f2) = fs.map(_.toDF("id", "c", "v", "s", "k"))
    Seq(s"filter $pred" -> Step(Seq(f0), FilterOp(pred)),
      "join" -> Step(Seq(f0, d.toDF("k", "u", "w")), JoinOp("k", "k", "l_", "r_")),
      "union of 2" -> Step(Seq(f0, f1), UnionOp()),
      "union of 3" -> Step(Seq(f0, f1, f2), UnionOp()),
      "group by c" -> Step(Seq(f0), GroupByOp(Seq("c"), aggs)),
      "group by c, k" -> Step(Seq(f1), GroupByOp(Seq("c", "k"), aggs)))
  }

  /** `scores` against a per-column reference: `score` on `step`, or, with
    * `sampleRows`, on the sampled step (`Sampling.uniform` is deterministic
    * in its seed), where each exceptionality source is counted by its own
    * `groupBy` in the full input's KS key space, as FEDEX-SAMPLING keys it.
    */
  private def checkScores(name: String, step: Step, maxBins: Int, sampleRows: Option[Long]): Prop = {
    val attrs   = step.outputAttrs
    val batched = Interestingness.scores(step, attrs, maxBins, sampleRows, seed = 3)
    // checkpointed, not cached: `where` over a cached frame skips a batch whose
    // only values above the bound are NaN (Spark's in-memory batch pruning)
    val ref: Seq[DataFrame] =
      sampleRows.fold(step.inputs)(k => step.inputs.map(Sampling.uniform(_, k, 3).localCheckpoint()))
    val sampled = Step(ref, step.op)
    def ks(attr: String, i: Int, c: String): Double = {
      val Ks.KeySpace(key, numeric) = Ks.keySpaces(step.inputs(i), Seq(c), maxBins)(c)
      def counts(df: DataFrame, column: String) = df.groupBy(key(col(column)).as("k")).count()
        .where(col("k").isNotNull).collect().map(r => r.getString(0) -> r.getLong(1)).toSeq
      Ks.fromCounts(counts(ref(i), c), counts(sampled.output, attr), numeric)
    }
    val perColumn = attrs.flatMap { a =>
      val sources = step.sources(a)
      (if (sampleRows.isEmpty || sources.isEmpty) Interestingness.score(sampled, a, maxBins)
       else sources.map { case (i, c) => ks(a, i, c) }.maxOption).map(a -> _)
    }.toMap
    val wrong = perColumn.collect { case (a, s) if !batched.get(a).exists(b => math.abs(b - s) < 1e-12) =>
      s"$a: batched ${batched.get(a)}, per column $s" }
    Prop(batched.keySet == perColumn.keySet) :| s"$name: columns ${batched.keySet} != ${perColumn.keySet}" &&
      Prop(wrong.isEmpty) :| s"$name, maxBins $maxBins, sample $sampleRows: ${wrong.mkString("; ")}"
  }

  test("scores in one aggregation == score per column on random steps, exact and sampled") {
    // maxBins = 3 bucketises v and id; a 5-row sample draws from larger inputs
    checkProp(Prop.forAllNoShrink(steps, Gen.oneOf(3, 1024), Gen.oneOf(None, Some(5L))) { (ss, maxBins, k) =>
      ss.map { case (name, step) => checkScores(name, step, maxBins, k) }.reduce(_ && _)
    }, minTests = 6)
  }
}
