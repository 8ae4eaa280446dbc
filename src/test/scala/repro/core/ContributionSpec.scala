package repro.core

import repro.{PropChecks, SparkSpec}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}

object ContributionSpec {

  /** One random case: a step, the output column, the partitioned input and
    * the column of that input the output column comes from, if it is a source.
    */
  final case class Case(name: String, step: Step, attr: String, idx: Int,
                        partitionOn: String, inCol: Option[String]) {
    override def toString: String = s"$name explaining $attr"
  }
}

class ContributionSpec extends SparkSpec with PropChecks {
  import ContributionSpec.Case
  import spark.implicits._

  private def freqPartitionOn(df: org.apache.spark.sql.DataFrame, attr: String, n: Int) =
    Partition.frequency(df, attr, n)

  // ------------------------------------------- paper §3.3 worked examples

  test("paper example: contribution of (x,2) to sum group-by diversity is negative") {
    // d_in = {(x,1),(x,2),(y,3)} ; removing (x,2): d_out {(x,1),(y,3)} has CV>0 vs 0
    val din  = Seq(("x", 1), ("x", 2), ("y", 3)).toDF("a", "b")
    val step = Step(Seq(din), GroupByOp(Seq("a"), Seq(AggSpec("sum", "b", "sum_b"))))
    val p    = freqPartitionOn(din, "b", 3) // singleton sets per b value
    val res  = Contribution.all(step, "sum_b", p).get
    assert(res.full === 0.0) // {(x,3),(y,3)} is perfectly uniform
    assert(res.perSet("2") < 0.0)
  }

  test("paper example: contribution of one (x,1) to sum group-by diversity is positive") {
    // d_in = {(x,1),(x,1),(y,1)} with row ids so singleton sets are expressible
    val din  = Seq((0, "x", 1), (1, "x", 1), (2, "y", 1)).toDF("id", "a", "b")
    val step = Step(Seq(din), GroupByOp(Seq("a"), Seq(AggSpec("sum", "b", "sum_b"))))
    val p    = freqPartitionOn(din, "id", 3)
    val res  = Contribution.all(step, "sum_b", p).get
    assert(res.full > 0.0) // {(x,2),(y,1)} is diverse
    assert(res.perSet("0") > 0.0) // removing one (x,1) → {(x,1),(y,1)}, CV 0
    assert(res.perSet("1") > 0.0) // symmetric to id 0
  }

  test("filter contribution: the planted dominant set has the top contribution") {
    val rows = (1 to 300).map { i =>
      val cat = if (i % 5 == 0) "C" else if (i % 2 == 0) "A" else "B"
      val v   = if (cat == "C") 90 + i % 10 else i % 80
      (cat, v)
    }
    val din  = rows.toDF("category", "value").cache()
    val step = Step(Seq(din), FilterOp("value > 85"))
    val p    = freqPartitionOn(din, "category", 3)
    val res  = Contribution.all(step, "category", p).get
    assert(res.perSet("C") === res.perSet.values.max)
    assert(res.perSet("C") > 0)
  }

  // ----------------------------------------------- fast path == exact path

  private lazy val planted = {
    val rows = (1 to 240).map { i =>
      val cat = if (i % 6 == 0) "C" else if (i % 2 == 0) "A" else "B"
      val dec = if (i % 3 == 0) "1990s" else "2000s"
      val v   = (if (cat == "C") 80 + i % 20 else i % 70).toDouble
      (i, cat, dec, v)
    }
    rows.toDF("id", "category", "decade", "value").cache()
  }

  private def assertFastMatchesExact(step: Step, attr: String, p: RowPartition,
                                     labeledIdx: Int = 0): Unit = {
    val fast = Contribution.all(step, attr, p, labeledIdx).get
    p.sets.foreach { s =>
      val exact = Contribution.exact(step, attr, p, s, labeledIdx).get
      val f     = fast.perSet.getOrElse(s, fast.full) // sets absent from cells contribute full-I(full)=0... assert presence below
      assert(fast.perSet.contains(s), s"fast path lost set $s")
      assert(math.abs(f - exact) < 1e-9, s"set=$s fast=$f exact=$exact")
    }
  }

  test("fast == exact: filter step, frequency partition") {
    val step = Step(Seq(planted), FilterOp("value > 60"))
    assertFastMatchesExact(step, "category", freqPartitionOn(planted, "category", 3))
  }

  test("fast == exact: filter step, numeric partition on another column") {
    val step = Step(Seq(planted), FilterOp("value > 60"))
    assertFastMatchesExact(step, "value", Partition.numericBins(planted, "value", 4))
  }

  test("fast == exact: group-by mean") {
    val step = Step(Seq(planted), GroupByOp(Seq("category"), Seq(AggSpec("mean", "value", "m"))))
    assertFastMatchesExact(step, "m", freqPartitionOn(planted, "decade", 2))
  }

  test("fast == exact: group-by sum / count(*) / count(col)") {
    val gb = GroupByOp(Seq("category"), Seq(
      AggSpec("sum", "value", "s"), AggSpec("count", "*", "c"), AggSpec("count", "value", "cv")))
    val step = Step(Seq(planted), gb)
    val p    = freqPartitionOn(planted, "decade", 2)
    Seq("s", "c", "cv").foreach(assertFastMatchesExact(step, _, p))
  }

  test("fast == exact: group-by max and min") {
    val gb   = GroupByOp(Seq("category"), Seq(AggSpec("max", "value", "mx"), AggSpec("min", "value", "mn")))
    val step = Step(Seq(planted), gb)
    val p    = freqPartitionOn(planted, "decade", 2)
    Seq("mx", "mn").foreach(assertFastMatchesExact(step, _, p))
  }

  test("fast == exact: group-by numeric key column") {
    val din  = planted.withColumn("bucket", (col("id") % 4).cast("int"))
    val step = Step(Seq(din), GroupByOp(Seq("bucket"), Seq(AggSpec("mean", "value", "m"))))
    assertFastMatchesExact(step, "bucket", freqPartitionOn(din, "category", 3))
  }

  test("fast == exact: join step, partition on the dimension side") {
    val dim  = Seq((1, "x"), (2, "y"), (3, "z"), (4, "x")).toDF("k", "name")
    val fact = Seq(1, 1, 2, 3, 3, 3, 4).toDF("k")
    val step = Step(Seq(dim, fact), JoinOp("k", "k", "dim_", "fact_"))
    val p    = freqPartitionOn(dim, "name", 3)
    assertFastMatchesExact(step, "dim_name", p, labeledIdx = 0)
  }

  test("fast == exact: join step, attribute owned by the NON-partitioned side") {
    val dim  = Seq((1, "x"), (2, "y"), (3, "z")).toDF("k", "name")
    val fact = Seq((1, 10.0), (1, 20.0), (2, 10.0), (3, 30.0)).toDF("k", "amt")
    val step = Step(Seq(dim, fact), JoinOp("k", "k", "dim_", "fact_"))
    val p    = freqPartitionOn(dim, "name", 3)
    assertFastMatchesExact(step, "fact_amt", p, labeledIdx = 0)
  }

  test("fast == exact: union step") {
    val a    = Seq(("p", 1), ("p", 2), ("q", 3), ("q", 4)).toDF("c", "v")
    val b    = Seq(("p", 9), ("r", 9), ("r", 8)).toDF("c", "v")
    val step = Step(Seq(a, b), UnionOp())
    val p    = freqPartitionOn(a, "c", 2)
    assertFastMatchesExact(step, "v", p, labeledIdx = 0)
    assertFastMatchesExact(step, "c", p, labeledIdx = 0)
  }

  // ------------------------------------- fast == exact on random frames

  private type FactRow = (Int, Option[String], Option[Double], Option[String], Int)
  private type DimRow  = (Int, Option[String], Option[Double], Option[String])

  private val dbl = Gen.frequency(1 -> Gen.const(None),
    6 -> Gen.oneOf(Double.NaN, 0.0, -0.0, 1.5, -2.25, 3.0).map(Some(_)))
  private def str(vs: String*) = Gen.frequency(1 -> Gen.const(None), 5 -> Gen.oneOf(vs).map(Some(_)))
  private def cat(vs: String*) = Gen.frequency(1 -> Gen.const(None), 3 -> Gen.const(Some("z")),
    4 -> Gen.oneOf(vs).map(Some(_)))

  /** Small facts (id, c, v, s, k): few values, so counts tie; nulls, NaN and
    * ±0.0 in the explained columns v and s, which are all-null where c = 'z'.
    */
  private val facts: Gen[Seq[FactRow]] = Gen.choose(0, 14).flatMap(n => Gen.listOfN(n,
    for { c <- cat("a", "b", "d"); v <- dbl; s <- str("p", "q"); k <- Gen.choose(0, 3) }
    yield (c, v, s, k))).map(_.zipWithIndex.map { case ((c, v, s, k), i) =>
      val allNull = c.contains("z")
      (i, c, if (allNull) None else v, if (allNull) None else s, k)
    })

  /** Join dimension (k, u, w, t): duplicate and unmatched keys, w and t
    * all-null where u = 'z'.
    */
  private val dims: Gen[Seq[DimRow]] = Gen.choose(0, 6).flatMap(n => Gen.listOfN(n,
    for { k <- Gen.choose(0, 4); u <- cat("m", "n"); w <- dbl; t <- str("e", "f") }
    yield if (u.contains("z")) (k, u, None, None) else (k, u, w, t)))

  private val cases: Gen[Seq[Case]] = for {
    fs      <- Gen.listOfN(3, facts)
    d       <- dims
    pred    <- Gen.oneOf("v > 0", "s = 'p' OR v IS NULL", "id % 2 = 0", "c = 'z'", "id < 0")
    fAttr   <- Gen.oneOf("v", "s", "c")
    jAttrs  <- Gen.listOfN(2, Gen.oneOf("l_v", "l_s", "r_w", "r_t"))
    uAttr   <- Gen.oneOf("v", "s")
    u2Idx   <- Gen.choose(0, 1)
    u3Idx   <- Gen.choose(0, 2)
  } yield {
    val Seq(f0, f1, f2) = fs.map(_.toDF("id", "c", "v", "s", "k"))
    val dim  = d.toDF("k", "u", "w", "t")
    val join = Step(Seq(f0, dim), JoinOp("k", "k", "l_", "r_"))
    def joinCase(attr: String, idx: Int, on: String) = {
      val prefix = if (idx == 0) "l_" else "r_"
      Case(s"join partitioned on input $idx", join, attr, idx, on,
        Some(attr.stripPrefix(prefix)).filter(_ => attr.startsWith(prefix)))
    }
    Seq(
      Case(s"filter $pred", Step(Seq(f0), FilterOp(pred)), fAttr, 0, "c", Some(fAttr)),
      joinCase(jAttrs(0), 0, "c"),
      joinCase(jAttrs(1), 1, "u"),
      Case("union of 2", Step(Seq(f0, f1), UnionOp()), uAttr, u2Idx, "c", Some(uAttr)),
      Case("union of 3", Step(Seq(f0, f1, f2), UnionOp()), uAttr, u3Idx, "c", Some(uAttr)))
  }

  /** The fast path against the reference and against counts taken directly
    * from the labeled input and the re-applied output.
    */
  private def checkCase(c: Case, n: Int): Prop = {
    import Partition.LabelCol
    val p    = Partition.frequency(c.step.inputs(c.idx), c.partitionOn, n)
    val fast = Contribution.all(c.step, c.attr, p, c.idx).get
    val in   = p.labeled.collect().map { r =>
      (Option(r.getAs[String](LabelCol)), c.inCol.exists(ic => !r.isNullAt(r.fieldIndex(ic))))
    }
    val out  = c.step.reapply(c.step.inputs.updated(c.idx, p.labeled))
      .select(col(LabelCol), col(c.attr)).collect()
      .map(r => (Option(r.getString(0)), !r.isNullAt(1)))
    // every set with a cell whose key is not null, on the input or the output side
    val expectedSets = (in ++ out).collect { case (Some(l), true) => l }.toSet
    def share(rows: Array[(Option[String], Boolean)], s: String) =
      if (rows.isEmpty) None else Some(rows.count(_._1.contains(s)).toDouble / rows.length)
    val wrongC = fast.perSet.toSeq.flatMap { case (s, fc) =>
      val ec = Contribution.exact(c.step, c.attr, p, s, c.idx).get
      if (math.abs(fc - ec) < 1e-9) None else Some(s"C($s) fast=$fc exact=$ec")
    }
    val wrongShares = fast.stats.toSeq.collect {
      case (s, st) if !close(st.inShare, if (c.inCol.isDefined) share(in, s) else None) ||
                      !close(st.outShare, share(out, s)) =>
        s"shares($s) = ${st.inShare}, ${st.outShare}"
    }
    val fullI = Interestingness.score(c.step, c.attr).get
    Prop(fast.perSet.keySet == expectedSets) :| s"$c: sets ${fast.perSet.keySet} != $expectedSets" &&
      Prop(math.abs(fast.full - fullI) < 1e-9) :| s"$c: full ${fast.full} != $fullI" &&
      Prop(wrongC.isEmpty) :| s"$c: ${wrongC.mkString("; ")}" &&
      Prop(wrongShares.isEmpty) :| s"$c: ${wrongShares.mkString("; ")}"
  }

  private def close(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => math.abs(x - y) < 1e-12
    case _                  => a == b
  }

  test("fast == exact on random frames: filter, join on either side, union of 2 and 3") {
    // n = 2 leaves non-null values in the ignore-set; n = 4 makes every value a set
    checkProp(Prop.forAllNoShrink(cases, Gen.oneOf(2, 4)) { (cs, n) =>
      cs.map(checkCase(_, n)).reduce(_ && _)
    }, minTests = 12)
  }

  // ----------------- one query per target == per partition == exact

  private type TargetRow = (Int, Option[Int], Option[Double], Option[String])

  /** Rows (id, k, v, s) and g = "g" + k / 2: k is a numeric target with nulls
    * that functionally determines the coarser g, so one target yields
    * frequency, numeric-bin and many-to-one partitions.
    */
  private val targetRows: Gen[Seq[TargetRow]] = Gen.choose(0, 14).flatMap(n => Gen.listOfN(n,
    for {
      k <- Gen.frequency(1 -> Gen.const(None), 6 -> Gen.choose(0, 5).map(Some(_)))
      v <- dbl
      s <- str("p", "q")
    } yield (k, v, s))).map(_.zipWithIndex.map { case ((k, v, s), i) => (i, k, v, s) })

  private def withG(rows: Seq[TargetRow]) =
    rows.toDF("id", "k", "v", "s").withColumn("g", concat(lit("g"), (col("k") / 2).cast("int")))

  private val targetCases: Gen[Seq[Case]] = for {
    fs    <- Gen.listOfN(2, targetRows)
    d     <- dims
    pred  <- Gen.oneOf("v > 0", "s = 'p' OR v IS NULL", "id % 2 = 0", "id < 0")
    fAttr <- Gen.oneOf("k", "v", "s")
    uIdx  <- Gen.choose(0, 1)
  } yield {
    val Seq(f0, f1) = fs.map(withG)
    val join = Step(Seq(f0, d.toDF("k", "u", "w", "t")), JoinOp("k", "k", "l_", "r_"))
    Seq(
      Case(s"filter $pred", Step(Seq(f0), FilterOp(pred)), fAttr, 0, "k", Some(fAttr)),
      Case("join", join, "l_k", 0, "k", Some("k")),
      Case("join, attribute of the other input", join, "r_u", 0, "k", None),
      Case("union of 2", Step(Seq(f0, f1), UnionOp()), "k", uIdx, "k", Some("k")))
  }

  test("one contribution query per target == Contribution.all per partition == exact") {
    var methods = Set.empty[String]
    checkProp(Prop.forAllNoShrink(targetCases, Gen.oneOf(2, 3)) { (cs, n) =>
      cs.map { c =>
        val parts = Partition.candidatesMulti(c.step.inputs(c.idx), c.partitionOn, Seq(n), enableManyToOne = true)
        methods ++= parts.map(_.method)
        // every column with a source shares the one query
        val attrs   = c.step.outputAttrs.filter(c.step.sources(_).nonEmpty)
        val keys    = Interestingness.keySpaces(c.step, attrs, Ks.MaxBins, Seq.empty)
        val batched = Contribution.ofTarget(c.step, attrs, parts, c.idx, keys).collect { case (c.attr, _, r) => r }
        val single  = parts.map(Contribution.all(c.step, c.attr, _, c.idx).get)
        // frequency partitions are checked against exact by the test above
        val wrongC = parts.zip(single).filter(_._1.method != "frequency").flatMap { case (p, res) =>
          res.perSet.toSeq.flatMap { case (s, fc) =>
            val ec = Contribution.exact(c.step, c.attr, p, s, c.idx).get
            Option.when(math.abs(fc - ec) >= 1e-9)(s"${p.method} ${p.labelAttr}: C($s) fast=$fc exact=$ec")
          }
        }
        Prop(batched == single) :| s"$c, n=$n: per target $batched != per partition $single" &&
          Prop(wrongC.isEmpty) :| s"$c, n=$n: ${wrongC.mkString("; ")}"
      }.reduce(_ && _)
    }, minTests = 6)
    assert(methods === Set("frequency", "numeric", "many-to-one"))
  }

  test("one I for both phases: each exceptionality result's full is Interestingness.scores' I, bit for bit") {
    // maxBins = 3 bucketises id, k and v, in each input's own key space
    checkProp(Prop.forAllNoShrink(targetCases, Gen.oneOf(3, 1024)) { (cs, maxBins) =>
      cs.map { c =>
        val attrs  = c.step.outputAttrs
        val parts  = Partition.candidatesMulti(c.step.inputs(c.idx), c.partitionOn, Seq(2), enableManyToOne = true)
        val keys   = Interestingness.keySpaces(c.step, attrs, maxBins, Seq.empty)
        val scores = Interestingness.scores(c.step, attrs, maxBins)
        val wrong  = Contribution.ofTarget(c.step, attrs, parts, c.idx, keys).collect {
          case (a, p, r) if !scores.get(a).exists(i => java.lang.Double.compare(i, r.full) == 0) =>
            s"$a over ${p.method} ${p.labelAttr}: full ${r.full}, I ${scores.get(a)}"
        }
        Prop(wrong.isEmpty) :| s"$c, maxBins $maxBins: ${wrong.mkString("; ")}"
      }.reduce(_ && _)
    }, minTests = 6)
  }

  test("exceptionality: one query per target, however many columns it explains") {
    val step  = Step(Seq(planted), FilterOp("value > 60"))
    val parts = Seq(2, 3).map(Partition.frequency(planted, "category", _))
    val attrs = Seq("category", "decade", "value")
    val keys  = Interestingness.keySpaces(step, attrs, Ks.MaxBins, Seq.empty)
    planted.count() // cache the input before counting
    val (one, three) = (sparkJobs(Contribution.ofTarget(step, attrs.take(1), parts, 0, keys)),
      sparkJobs(Contribution.ofTarget(step, attrs, parts, 0, keys)))
    assert(one > 0)
    assert(one === three)
  }

  // ------------------------------- group-by fast == exact on random frames

  private type GroupRow = (Option[String], Option[Int], Option[Double], Option[String])

  /** Group-by inputs (g, k, v, p): a string key g and an int key k, both with
    * nulls; values v with null, NaN, ±0.0 and ±∞, or only ±1.5 so group
    * values can have zero mean; p, a non-key column to partition on. One
    * frame in five holds a single group.
    */
  private val groupFrames: Gen[Seq[GroupRow]] = for {
    oneGroup <- Gen.frequency(4 -> false, 1 -> true)
    vals     <- Gen.oneOf(Seq(-1.5, 1.5), Seq(Double.NaN, 0.0, -0.0, 1.5, -2.25, 3.0,
                  Double.PositiveInfinity, Double.NegativeInfinity))
    n        <- Gen.choose(1, 14)
    rows     <- Gen.listOfN(n, for {
                  g <- if (oneGroup) Gen.const(Some("a")) else str("a", "b", "c")
                  k <- if (oneGroup) Gen.const(Some(1))
                       else Gen.frequency(1 -> Gen.const(None), 5 -> Gen.choose(0, 2).map(Some(_)))
                  v <- Gen.frequency(1 -> Gen.const(None), 6 -> Gen.oneOf(vals).map(Some(_)))
                  p <- str("x", "y", "w")
                } yield (g, k, v, p))
  } yield rows

  private val groupAggs = Seq(AggSpec("count", "*", "n_all"), AggSpec("count", "v", "n_v"),
    AggSpec("sum", "v", "s"), AggSpec("mean", "v", "m"), AggSpec("avg", "v", "a"),
    AggSpec("max", "v", "mx"), AggSpec("min", "v", "mn"))

  /** Every aggregate, and the int key when grouped on, against the reference;
    * the caption's overall mean and deviation against the output column.
    */
  private def checkGroupBy(rows: Seq[GroupRow], keys: Seq[String], on: String, n: Int): Prop = {
    import Partition.LabelCol
    val din    = rows.toDF("g", "k", "v", "p")
    val step   = Step(Seq(din), GroupByOp(keys, groupAggs))
    val p      = Partition.frequency(din, on, n)
    val labels = p.labeled.select(LabelCol).collect().flatMap(r => Option(r.getString(0))).toSet
    val name   = s"group by ${keys.mkString(",")}, $n sets on $on"
    (groupAggs.map(_.alias) ++ keys.filter(_ == "k")).map { attr =>
      val fast   = Contribution.all(step, attr, p).get
      val wrongC = fast.perSet.toSeq.flatMap { case (s, fc) =>
        val ec = Contribution.exact(step, attr, p, s).get
        if (math.abs(fc - ec) < 1e-9) None else Some(s"C($s) fast=$fc exact=$ec")
      }
      val fullI = Interestingness.score(step, attr).get
      val xs = step.output.select(col(attr).cast("double")).collect()
        .filterNot(_.isNullAt(0)).map(_.getDouble(0)).filterNot(v => v.isNaN || v.isInfinite)
      val mu = if (xs.isEmpty) 0.0 else xs.sum / xs.length
      val sd = if (xs.length < 2) 0.0 else math.sqrt(xs.map(x => (x - mu) * (x - mu)).sum / (xs.length - 1))
      val wrongStats = fast.stats.toSeq.collect {
        case (s, st) if !st.overallMean.exists(m => math.abs(m - mu) < 1e-9) ||
                        !st.overallSd.exists(d => math.abs(d - sd) < 1e-9) =>
          s"stats($s) = ${st.overallMean}, ${st.overallSd}; expected $mu, $sd"
      }
      Prop(fast.perSet.keySet == labels) :| s"$name explaining $attr: sets ${fast.perSet.keySet} != $labels" &&
        Prop(math.abs(fast.full - fullI) < 1e-9) :| s"$name explaining $attr: full ${fast.full} != $fullI" &&
        Prop(wrongC.isEmpty) :| s"$name explaining $attr: ${wrongC.mkString("; ")}" &&
        Prop(wrongStats.isEmpty) :| s"$name explaining $attr: ${wrongStats.mkString("; ")}"
    }.reduce(_ && _)
  }

  test("group-by fast == exact on random frames: every aggregate and a numeric key") {
    val keySets = Gen.oneOf(Seq("g"), Seq("k"), Seq("g", "k"))
    checkProp(Prop.forAllNoShrink(groupFrames, keySets, Gen.oneOf(true, false), Gen.oneOf(2, 4)) {
      (rows, keys, onKey, n) => checkGroupBy(rows, keys, if (onKey) keys.last else "p", n)
    }, minTests = 15)
  }

  /** Same sets and, to 1e-9, the same I, C and caption statistics (a NaN
    * set mean matches NaN): the driver sums group values in the order the
    * rows arrive, which depends on the query.
    */
  private def sameResult(a: ContributionResult, b: ContributionResult): Boolean = {
    def close(x: Option[Double], y: Option[Double]) = x.size == y.size && x.zip(y).forall { case (u, v) =>
      u == v || (u.isNaN && v.isNaN) || math.abs(u - v) < 1e-9 }
    def fields(st: SetStats) = Seq(st.inShare, st.outShare, st.setMean, st.overallMean, st.overallSd)
    close(Some(a.full), Some(b.full)) && a.perSet.keySet == b.perSet.keySet && a.stats.keySet == b.stats.keySet &&
      a.perSet.forall { case (s, c) => close(Some(c), b.perSet.get(s)) } &&
      a.stats.forall { case (s, st) => fields(st).zip(fields(b.stats(s))).forall { case (x, y) => close(x, y) } }
  }

  test("group-by: one query per target == Contribution.all per (column, partition) == exact") {
    // kc coarsens the int key k, so a target on k yields frequency,
    // numeric-bin and many-to-one partitions
    var methods = Set.empty[String]
    val keySets = Gen.oneOf(Seq("k"), Seq("k", "g"))
    checkProp(Prop.forAllNoShrink(groupFrames, keySets, Gen.oneOf(2, 3)) { (rows, keys, n) =>
      val din   = rows.toDF("g", "k", "v", "p").withColumn("kc", concat(lit("c"), (col("k") / 2).cast("int")))
      val step  = Step(Seq(din), GroupByOp(keys, groupAggs))
      val name  = s"group by ${keys.mkString(",")}, $n sets on ${keys.head}"
      val parts = Partition.candidatesMulti(din, keys.head, Seq(n), enableManyToOne = true)
      methods ++= parts.map(_.method)
      val attrs   = groupAggs.map(_.alias) ++ keys
      val batched = Contribution.ofTarget(step, attrs, parts, 0, Map.empty)
      val single  = for { a <- attrs; p <- parts; res <- Contribution.all(step, a, p) } yield (a, p, res)
      val differ  = batched.zip(single).collect { case ((a, p, x), (_, _, y)) if !sameResult(x, y) =>
        s"$a over ${p.method} ${p.labelAttr}: per target $x, per pair $y" }
      // frequency partitions are checked against exact by the test above
      val wrongC = single.filter(_._2.method != "frequency").flatMap { case (a, p, res) =>
        res.perSet.toSeq.flatMap { case (s, fc) =>
          val ec = Contribution.exact(step, a, p, s).get
          Option.when(math.abs(fc - ec) >= 1e-9)(s"$a over ${p.method} ${p.labelAttr}: C($s) fast=$fc exact=$ec")
        }
      }
      Prop(batched.map(r => (r._1, r._2)) == single.map(r => (r._1, r._2))) :|
        s"$name: per target ${batched.map(r => (r._1, r._2.method))} != per pair ${single.map(r => (r._1, r._2.method))}" &&
        Prop(differ.isEmpty) :| s"$name: ${differ.mkString("; ")}" &&
        Prop(wrongC.isEmpty) :| s"$name: ${wrongC.mkString("; ")}"
    }, minTests = 6)
    assert(methods === Set("frequency", "numeric", "many-to-one"))
  }

  test("group-by: each ofTarget result's full is Interestingness.scores' I, to 1e-9") {
    // not bit for bit: partial sums split by set round otherwise than whole groups'
    val keySets = Gen.oneOf(Seq("g"), Seq("k"), Seq("g", "k"))
    checkProp(Prop.forAllNoShrink(groupFrames, keySets, Gen.oneOf(true, false), Gen.oneOf(2, 3)) {
      (rows, keys, onKey, n) =>
        val din     = rows.toDF("g", "k", "v", "p")
        val step    = Step(Seq(din), GroupByOp(keys, groupAggs))
        val name    = s"group by ${keys.mkString(",")}, $n sets on ${if (onKey) keys.last else "p"}"
        val parts   = Partition.candidatesMulti(din, if (onKey) keys.last else "p", Seq(n), enableManyToOne = true)
        val scores  = Interestingness.scores(step, step.outputAttrs)
        val results = Contribution.ofTarget(step, step.outputAttrs, parts, 0, Map.empty)
        val wrong   = results.collect { case (a, p, r) if !scores.get(a).exists(i => math.abs(i - r.full) < 1e-9) =>
          s"$a over ${p.method} ${p.labelAttr}: full ${r.full}, I ${scores.get(a)}" }
        Prop(results.map(_._1).toSet == scores.keySet) :|
          s"$name: columns ${results.map(_._1).toSet} != ${scores.keySet}" &&
          Prop(wrong.isEmpty) :| s"$name: ${wrong.mkString("; ")}"
    }, minTests = 6)
  }

  test("group-by: a max of a string column has no diversity, so no contribution") {
    val din  = Seq(("x", "1"), ("x", "5"), ("y", "9"), ("z", "2")).toDF("g", "s")
    val step = Step(Seq(din), GroupByOp(Seq("g"), Seq(AggSpec("max", "s", "max_s"))))
    assert(Interestingness.score(step, "max_s") === None)
    assert(Contribution.all(step, "max_s", freqPartitionOn(din, "g", 2)) === None)
  }

  // --------------------------------------------------------- standardized

  test("standardized contribution centres and scales within the partition") {
    val r = ContributionResult(0.5, Map("a" -> 0.3, "b" -> 0.1, "c" -> -0.1), Map.empty)
    val s = r.standardized
    assert(math.abs(s.values.sum) < 1e-12) // mean 0
    assert(s("a") > s("b") && s("b") > s("c"))
    val sd = math.sqrt(Seq(0.3, 0.1, -0.1).map(v => math.pow(v - 0.1, 2)).sum / 2)
    assert(math.abs(s("a") - 0.2 / sd) < 1e-12)
  }

  test("standardized contribution with a single set or zero variance is 0") {
    assert(ContributionResult(0.1, Map("a" -> 0.4), Map.empty).standardized("a") === 0.0)
    val r = ContributionResult(0.1, Map("a" -> 0.2, "b" -> 0.2), Map.empty)
    assert(r.standardized.values.forall(_ === 0.0))
    // C values one ulp apart differ only by rounding
    val ulp = ContributionResult(0.1, Map("a" -> 0.3, "b" -> 0.3, "c" -> math.nextUp(0.3), "d" -> 0.3), Map.empty)
    assert(ulp.standardized.values.forall(_ === 0.0), ulp.standardized)
  }

  // -------------------------------------------------------------- stats

  test("exceptionality stats carry input/output shares for captions") {
    val din  = Seq(("A", 10), ("A", 90), ("B", 95), ("B", 96)).toDF("c", "v")
    val step = Step(Seq(din), FilterOp("v > 50"))
    val res  = Contribution.all(step, "c", freqPartitionOn(din, "c", 2)).get
    assert(math.abs(res.stats("A").inShare.get - 0.5) < 1e-12)
    assert(math.abs(res.stats("A").outShare.get - (1.0 / 3)) < 1e-12)
    assert(math.abs(res.stats("B").outShare.get - (2.0 / 3)) < 1e-12)

    // join and union: rows whose explained column is null still count toward
    // their set's input share, as they do for filter
    val dim  = Seq((1, Some("x")), (2, None), (3, Some("x")), (4, Some("y"))).toDF("k", "name")
    val fact = Seq(1, 1, 2, 3, 4).toDF("k")
    val join = Step(Seq(dim, fact), JoinOp("k", "k", "dim_", "fact_"))
    val jres = Contribution.all(join, "dim_name", freqPartitionOn(dim, "k", 4)).get
    assert(math.abs(jres.stats("1").inShare.get - 0.25) < 1e-12)
    assert(math.abs(jres.stats("1").outShare.get - 0.4) < 1e-12)
    assert(!jres.stats.contains("2")) // all-null on dim_name: not a set

    val a     = Seq(("p", Some(1)), ("p", None), ("q", Some(3)), ("q", Some(4))).toDF("c", "v")
    val b     = Seq(("p", Some(9)), ("r", None)).toDF("c", "v")
    val union = Step(Seq(a, b), UnionOp())
    val ures  = Contribution.all(union, "v", freqPartitionOn(a, "c", 2)).get
    assert(math.abs(ures.stats("p").inShare.get - 0.5) < 1e-12)
    assert(math.abs(ures.stats("p").outShare.get - (2.0 / 6)) < 1e-12)
  }

  test("diversity stats carry set means and the overall mean/sd") {
    val din  = Seq(("g1", "X", 10.0), ("g2", "X", 12.0), ("g3", "Y", 50.0)).toDF("g", "s", "v")
    val step = Step(Seq(din), GroupByOp(Seq("g"), Seq(AggSpec("mean", "v", "m"))))
    val res  = Contribution.all(step, "m", freqPartitionOn(din, "s", 2)).get
    assert(math.abs(res.stats("X").setMean.get - 11.0) < 1e-12)
    assert(math.abs(res.stats("Y").setMean.get - 50.0) < 1e-12)
    assert(math.abs(res.stats("X").overallMean.get - 24.0) < 1e-12)
  }

  test("ignore-set rows are never a set but still count in the full score") {
    val din  = Seq(("A", 1), ("A", 99), ("B", 99), ("rare", 99)).toDF("c", "v")
    val step = Step(Seq(din), FilterOp("v > 50"))
    val p    = freqPartitionOn(din, "c", 2) // 'rare' → ignore set
    val res  = Contribution.all(step, "c", p).get
    assert(!res.perSet.keySet.exists(_ == "rare") || p.sets.contains("rare"))
    val exactFull = Interestingness.score(step, "c").get
    assert(math.abs(res.full - exactFull) < 1e-9)
  }
}
