package repro.core

import repro.{PropChecks, SparkSpec}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}

class PartitionSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  // years repeat with conflicting genres so year→genre is NOT functional
  private lazy val songs = Seq(
    (1991, "1990s", "rock"), (1991, "1990s", "pop"), (1995, "1990s", "pop"),
    (2001, "2000s", "pop"), (2005, "2000s", "pop"),
    (2011, "2010s", "pop"), (2011, "2010s", "rock"), (2013, "2010s", "pop"),
    (2014, "2010s", "pop"), (2015, "2010s", "pop")
  ).toDF("year", "decade", "genre").cache()

  // -------------------------------------------------------------- frequency

  test("frequency: top-n most frequent values become the sets") {
    val p = Partition.frequency(songs, "decade", 2)
    assert(p.sets.toSet === Set("2010s", "1990s")) // counts 5 and 3
    assert(p.method === "frequency")
    assert(p.labelAttr === "decade")
  }

  test("frequency: remaining rows go to the ignore set (null label)") {
    val p = Partition.frequency(songs, "decade", 2)
    val ignored = p.labeled.where(col(Partition.LabelCol).isNull).count()
    assert(ignored === 2) // the 2000s rows
  }

  test("frequency: labels partition the rows disjointly and cover everything") {
    val p   = Partition.frequency(songs, "decade", 2)
    val tot = p.labeled.count()
    val perSet = p.sets.map(s => p.labeled.where(col(Partition.LabelCol) === s).count()).sum
    val ignore = p.labeled.where(col(Partition.LabelCol).isNull).count()
    assert(perSet + ignore === tot)
  }

  test("frequency: n larger than the domain keeps all values, empty ignore set") {
    val p = Partition.frequency(songs, "decade", 10)
    assert(p.sets.toSet === Set("1990s", "2000s", "2010s"))
    assert(p.labeled.where(col(Partition.LabelCol).isNull).count() === 0)
  }

  test("frequency: null attribute values always land in the ignore set") {
    val df = Seq(Some("a"), Some("a"), None).toDF("v")
    val p  = Partition.frequency(df, "v", 5)
    assert(p.sets === Seq("a"))
    assert(p.labeled.where(col(Partition.LabelCol).isNull).count() === 1)
  }

  test("frequency: deterministic tie-break by value") {
    val df = Seq("b", "a").toDF("v") // both frequency 1
    val p  = Partition.frequency(df, "v", 1)
    assert(p.sets === Seq("a"))
  }

  test("frequency: works on numeric columns via string labels") {
    val p = Partition.frequency(songs, "year", 3)
    assert(p.sets.size === 3)
    assert(p.labeled.columns.contains(Partition.LabelCol))
  }

  // ---------------------------------------------------------------- numeric

  test("numericBins: equal-frequency bins have near-equal counts") {
    val df = spark.range(1000).selectExpr("cast(id as double) as v")
    val p  = Partition.numericBins(df, "v", 4)
    assert(p.sets.size === 4)
    val counts = p.sets.map(s => p.labeled.where(col(Partition.LabelCol) === s).count())
    assert(counts.forall(c => math.abs(c - 250L) <= 30), counts.toString)
  }

  test("numericBins: every non-null row is labeled (empty ignore set)") {
    val df = spark.range(100).selectExpr("cast(id as double) as v")
    val p  = Partition.numericBins(df, "v", 5)
    assert(p.labeled.where(col(Partition.LabelCol).isNull).count() === 0)
  }

  test("numericBins: interval labels carry the end values (§3.7 labeling)") {
    val df = spark.range(100).selectExpr("cast(id as double) as v")
    val p  = Partition.numericBins(df, "v", 2)
    assert(p.sets.forall(s => s.startsWith("[") && s.endsWith("]") && s.contains(",")))
  }

  test("numericBins: constant column collapses to a single bin") {
    val df = Seq(5.0, 5.0, 5.0).toDF("v")
    val p  = Partition.numericBins(df, "v", 4)
    assert(p.sets.size === 1)
    assert(p.labeled.where(col(Partition.LabelCol).isNotNull).count() === 3)
  }

  test("numericBins: skewed column may collapse duplicate boundaries") {
    val df = (Seq.fill(95)(1.0) ++ Seq(2.0, 3.0, 4.0, 5.0, 6.0)).toDF("v")
    val p  = Partition.numericBins(df, "v", 10)
    assert(p.sets.size < 10)
    assert(p.sets.nonEmpty)
  }

  test("numericBins and KS boundaries read a 0.0/-0.0 tie as 0.0, however the rows split") {
    val vs = Seq(None, Some(-3.0), Some(-0.0), None, Some(2.0), None, Some(2.0), Some(4.0),
      Some(-0.0), Some(-3.0), Some(0.0))
    val frames = Seq(1, 4).map(spark.sparkContext.parallelize(vs, _).toDF("v"))
    val reads = (frames :+ frames.last.na.drop()).map { df =>
      (2 to 5).map(n => Partition.numericBins(df, "v", n).sets) ++
        (2 to 5).map(b => Ks.boundariesOf(df, Seq("v"), b)("v").map(_.toString).toSeq)
    }
    assert(reads.distinct.size === 1, reads)
    assert(!reads.head.flatten.exists(_.contains("-0.0")), reads.head)
  }

  test("numericBins: labels take more digits where 4 significant digits collide") {
    // at %.4g the edges 10001, 10002, 10004 all print as 1.000e+04
    val df = (10001 to 10009).map(_.toDouble).toDF("v")
    val p  = Partition.numericBins(df, "v", 5)
    assert(p.sets.size === 5)
    assert(p.sets.distinct === p.sets, p.sets)
    assert(p.sets === refBins(df, "v", 5))
    val counts = p.sets.map(s => p.labeled.where(col(Partition.LabelCol) === s).count())
    assert(counts.forall(_ > 0) && counts.sum === 9, counts)
  }

  test("numericBins rejects non-numeric columns") {
    intercept[IllegalArgumentException] {
      Partition.numericBins(songs, "decade", 3)
    }
  }

  test("numericBins: null values land in the ignore set") {
    val df = Seq(Some(1.0), Some(2.0), Some(3.0), None).toDF("v")
    val p  = Partition.numericBins(df, "v", 2)
    assert(p.labeled.where(col(Partition.LabelCol).isNull).count() === 1)
  }

  // ------------------------------------------------------------ many-to-one

  /** The coarser attributes B that `candidates` mines for `attr`. */
  private def manyToOneTargets(df: DataFrame, attr: String): Seq[String] =
    Partition.candidates(df, Seq(attr), Seq(1), Some(Partition.profile(df)))(attr).flatMap(_.via)

  test("manyToOneTargets: year → decade is detected") {
    assert(manyToOneTargets(songs, "year").contains("decade"))
  }

  test("manyToOneTargets: decade → year is NOT a many-to-one target (finer, violates FD)") {
    assert(!manyToOneTargets(songs, "decade").contains("year"))
  }

  test("manyToOneTargets: non-functionally-determined columns are rejected") {
    // genre is not determined by year's decade nor vice versa in this data
    assert(!manyToOneTargets(songs, "year").contains("genre"))
  }

  test("manyToOneTargets: condition 2 — constant columns (single value) are rejected") {
    val df = songs.withColumn("const", lit("x"))
    assert(!manyToOneTargets(df, "year").contains("const"))
  }

  test("manyToOneTargets: equal-cardinality bijections are rejected (not strictly coarser)") {
    val df = songs.withColumn("year_copy", col("year") + 10000)
    assert(!manyToOneTargets(df, "year").contains("year_copy"))
  }

  test("manyToOneTargets: maxLabelValues prunes high-cardinality targets") {
    // a determines both b (1,500 values) and c (10): b passes every test but
    // the 1,000-value cap
    val df = spark.range(3000).selectExpr("id as a", "id div 2 as b", "id % 10 as c")
    assert(manyToOneTargets(df, "a") === Seq("c"))
  }

  private def manyToOne(df: DataFrame, attr: String, n: Int): Seq[RowPartition] =
    Partition.candidatesMulti(df, attr, Seq(n)).filter(_.method == "many-to-one")

  test("manyToOne: partition labels come from the coarser column B") {
    val ps = manyToOne(songs, "year", 5)
    val byDecade = ps.find(_.via.contains("decade"))
    assert(byDecade.isDefined)
    assert(byDecade.get.sets.toSet === Set("1990s", "2000s", "2010s"))
    assert(byDecade.get.labelAttr === "decade")
    assert(byDecade.get.attr === "year")
  }

  test("manyToOne partition still respects Def 3.8 (disjoint cover)") {
    val p   = manyToOne(songs, "year", 5).find(_.via.contains("decade")).get
    val tot = p.labeled.count()
    val perSet = p.sets.map(s => p.labeled.where(col(Partition.LabelCol) === s).count()).sum
    assert(perSet === tot)
  }

  // --------------------------------------------------------------- bundling

  test("candidates: always includes the frequency partition") {
    val cs = Partition.candidatesMulti(songs, "decade", Seq(2))
    assert(cs.exists(_.method === "frequency"))
  }

  test("candidates: numeric binning added for numeric columns with enough distinct values") {
    val cs = Partition.candidatesMulti(songs, "year", Seq(3))
    assert(cs.exists(_.method === "numeric"))
  }

  test("candidates: numeric binning skipped when frequency already enumerates the domain") {
    val cs = Partition.candidatesMulti(songs, "year", Seq(50))
    assert(!cs.exists(_.method === "numeric"))
  }

  test("candidates: many-to-one can be disabled") {
    val cs = Partition.candidatesMulti(songs, "year", Seq(3), enableManyToOne = false)
    assert(!cs.exists(_.method === "many-to-one"))
  }

  test("candidates: many-to-one included when present") {
    val cs = Partition.candidatesMulti(songs, "year", Seq(3))
    assert(cs.exists(p => p.method === "many-to-one" && p.via.contains("decade")))
  }

  // ------------------------------------------- shared queries vs per-n reference

  /** Reference top-n values: one query per attribute and n. */
  private def refTop(df: DataFrame, attr: String, n: Int): Seq[String] =
    df.where(col(attr).isNotNull)
      .groupBy(col(attr).cast("string").as("__v")).count()
      .orderBy(desc("count"), asc("__v"))
      .limit(n).collect().map(_.getString(0)).toSeq

  /** Reference numeric bin labels: a quantile pass for this n alone, with
    * -0.0 read as 0.0, printed at the least precision (4 significant digits
    * or more) that keeps the labels distinct.
    */
  private def refBins(df: DataFrame, attr: String, n: Int): Seq[String] = {
    val named  = df.select(col(attr).cast("double").as("__v")).na.drop()
    val probs  = (1 until n).map(_.toDouble / n).toArray
    val bounds = if (probs.isEmpty) Array.empty[Double]
                 else named.stat.approxQuantile("__v", probs, 0.001).map(_ + 0.0).distinct.sorted
    val ext = named.agg(min("__v"), max("__v")).head()
    if (ext.isNullAt(0)) Seq.empty
    else {
      val lo = ext.getDouble(0) + 0.0; val hi = ext.getDouble(1) + 0.0
      val edges = (lo +: bounds.toSeq :+ hi).distinct.sorted
      def fmt(x: Double, digits: Int) = s"%.${digits}g".format(x)
      if (edges.size < 2) Seq(f"[$lo%.4g, $hi%.4g]")
      else (4 to 17).map(d => edges.sliding(2).map(w => s"[${fmt(w.head, d)}, ${fmt(w.last, d)}]").toSeq)
        .find(ls => ls.toSet.size == ls.size).get
    }
  }

  /** Reference FD test: collect countDistinct(B) for every group of A. */
  private def refDetermined(df: DataFrame, attr: String, bs: Seq[String]): Seq[String] =
    if (bs.isEmpty) Seq.empty
    else {
      val counts = bs.map(b => countDistinct(col(b)))
      val groups = df.where(col(attr).isNotNull).groupBy(col(attr)).agg(counts.head, counts.tail: _*).collect()
      bs.indices.collect { case j if groups.forall(_.getLong(1 + j) <= 1) => bs(j) }
    }

  /** Per-n reference for `candidates`: the public per-n functions plus
    * `frequency(B)` for each B that passes the profile pre-filter
    * (`1 < |B| < |A|`, `|B| ≤ 1000`) and `refDetermined`.
    */
  private def perN(df: DataFrame, attr: String, ns: Seq[Int], prof: Partition.Profile): Seq[RowPartition] = {
    val bs = refDetermined(df, attr, df.columns.toSeq.filter { c =>
      c != attr && prof(c) > 1 && prof(c) < prof(attr) && prof(c) <= 1000
    })
    ns.flatMap { n =>
      val freq = Partition.frequency(df, attr, n)
      val numeric =
        if (Ks.isNumeric(df, attr) && freq.sets.size >= n) Seq(Partition.numericBins(df, attr, n))
        else Seq.empty
      freq +: (numeric ++ bs.map { b =>
        val p = Partition.frequency(df, b, n)
        RowPartition("many-to-one", attr, Some(b), p.labeled, p.sets)
      })
    }
  }

  private def samePartitions(a: Seq[RowPartition], b: Seq[RowPartition]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      (x.method, x.attr, x.via, x.sets) == (y.method, y.attr, y.via, y.sets) &&
        x.labeled.queryExecution.analyzed.sameResult(y.labeled.queryExecution.analyzed)
    }

  private type FuzzRow = (Option[String], Option[Int], Option[Double], Option[String],
                          Option[Double], Int, Option[String])
  private val fuzzCols = Seq("s", "i", "d", "g", "h", "k", "z")

  /** Small frames with nulls, count ties, NaN, ±0.0, a constant column (k),
    * an all-null column (z), and columns functionally determined by another
    * (g by i, h by s) whose maps may send ±0.0, NaN or null anywhere.
    */
  private val fuzzFrames: Gen[Seq[FuzzRow]] = {
    val str = Gen.frequency(1 -> Gen.const(None), 6 -> Gen.oneOf("a", "b", "c", "d", "e").map(Some(_)))
    val int = Gen.frequency(1 -> Gen.const(None), 6 -> Gen.choose(-3, 8).map(Some(_)))
    val dbl = Gen.frequency(1 -> Gen.const(None),
      6 -> Gen.oneOf(Double.NaN, 0.0, -0.0, 1.5, -2.25, 3.0, 1e9).map(Some(_)))
    for {
      n    <- Gen.choose(0, 24)
      ss   <- Gen.listOfN(n, str)
      is   <- Gen.listOfN(n, int)
      ds   <- Gen.listOfN(n, dbl)
      gMap <- Gen.listOfN(13, Gen.oneOf(None, Some("x"), Some("y")))
      hMap <- Gen.listOfN(6, Gen.oneOf(None, Some(Double.NaN), Some(0.0), Some(-0.0), Some(1.0)))
    } yield ss.indices.map { r =>
      val g = is(r).flatMap(v => gMap(v + 3))
      val h = ss(r).flatMap(v => hMap(v.head - 'a'))
      (ss(r), is(r), ds(r), g, h, 7, Option.empty[String])
    }
  }

  private def frame(rows: Seq[FuzzRow]): DataFrame = rows.toDF(fuzzCols: _*)

  /** A random non-empty subset of the fuzz columns, as one input's targets. */
  private val targetSets: Gen[Seq[String]] = Gen.atLeastOne(fuzzCols).map(_.toSeq)

  test("candidatesMulti equals the per-n partitions on random frames") {
    checkProp(Prop.forAllNoShrink(fuzzFrames, targetSets) { (rows, targets) =>
      val df   = frame(rows)
      val ns   = Seq(5, 10)
      val prof = Partition.profile(df)
      val all  = Partition.candidates(df, targets, ns, Some(prof))
      targets.map { attr =>
        val refs = ns.flatMap(n => Seq(
          Partition.frequency(df, attr, n).sets == refTop(df, attr, n),
          !Ks.isNumeric(df, attr) || Partition.numericBins(df, attr, n).sets == refBins(df, attr, n)))
        Prop(refs.forall(identity)) :| s"$attr: per-n functions match the one-query reference" &&
          Prop(samePartitions(all(attr), perN(df, attr, ns, prof))) :|
            s"candidates(${targets.mkString(", ")})($attr) matches per-n partitions"
      }.reduce(_ && _) &&
        Prop(samePartitions(Partition.candidatesMulti(df, targets.head, ns), all(targets.head))) :|
          s"candidatesMulti(${targets.head}) is its one-target case"
    }, minTests = 20)
  }

  test("the min/max FD test equals countDistinct per group on random frames") {
    checkProp(Prop.forAllNoShrink(fuzzFrames, targetSets) { (rows, targets) =>
      val df  = frame(rows)
      val bs  = targets.map(a => a -> fuzzCols.filterNot(_ == a)).toMap
      val got = Partition.determined(df, bs)
      targets.map(a => Prop(got(a) == refDetermined(df, a, bs(a))) :| s"$a among ${targets.mkString(", ")}")
        .reduce(_ && _)
    }, minTests = 20)
  }

  test("the FD pass splits more than 64 targets of one input") {
    // a<m> = id % m for m in 2..71: a<m> determines a<j> exactly when j divides m
    val ms = 2 to 71
    val df = spark.range(200).selectExpr(ms.map(m => s"id % $m as a$m"): _*)
    val got = Partition.determined(df, ms.map(m => s"a$m" -> ms.filter(_ < m).map(j => s"a$j")).toMap)
    ms.foreach(m => assert(got(s"a$m") === ms.filter(j => j < m && m % j == 0).map(j => s"a$j"), s"a$m"))
    val prof  = Partition.profile(df)
    val built = Partition.candidates(df, ms.map(m => s"a$m"), Seq(5), Some(prof))
    ms.foreach { m =>
      val mined = got(s"a$m").filter(b => prof(b) < prof(s"a$m"))
      assert(built(s"a$m").flatMap(_.via) === mined, s"a$m")
    }
  }

  test("candidates over three targets of one input runs as many Spark jobs as over one") {
    // every target is numeric with 10+ values and determines the columns after it
    val df   = spark.range(300).selectExpr("id as a", "id % 50 as b", "id % 25 as c", "id % 5 as d")
    val prof = Partition.profile(df)
    val (one, three) = (sparkJobs(Partition.candidates(df, Seq("a"), Seq(5, 10), Some(prof))),
      sparkJobs(Partition.candidates(df, Seq("a", "b", "c"), Seq(5, 10), Some(prof))))
    assert(one > 0)
    assert(one === three)
  }

  test("numeric bins from one shared quantile pass equal one pass per n") {
    // enough distinct values that the quantile summary compresses
    val df = spark.range(20000).selectExpr("cast((id * 7919) % 10007 as double) / 3 as v")
    val ps = Partition.candidatesMulti(df, "v", Seq(5, 10), enableManyToOne = false)
      .filter(_.method == "numeric")
    assert(ps.map(_.sets) === Seq(refBins(df, "v", 5), refBins(df, "v", 10)))
  }
}
