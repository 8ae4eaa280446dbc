package repro.core

import repro.SparkSpec

class InterestingnessSpec extends SparkSpec {
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
}
