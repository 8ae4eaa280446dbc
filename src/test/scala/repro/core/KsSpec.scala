package repro.core

import repro.{PropChecks, SparkSpec}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}

class KsSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  // ------------------------------------------------------------- fromCounts

  test("fromCounts: identical distributions score 0") {
    val c = Seq("a" -> 3L, "b" -> 2L)
    assert(Ks.fromCounts(c, c, numeric = false) === 0.0)
  }

  test("fromCounts: identical shape at different scale scores 0") {
    val a = Seq("a" -> 3L, "b" -> 3L)
    val b = Seq("a" -> 30L, "b" -> 30L)
    assert(math.abs(Ks.fromCounts(a, b, numeric = false)) < 1e-12)
  }

  test("fromCounts: disjoint supports score 1") {
    val a = Seq("1" -> 5L)
    val b = Seq("2" -> 5L)
    assert(Ks.fromCounts(a, b, numeric = true) === 1.0)
  }

  test("fromCounts: hand-computed overlap case") {
    // A: CDF at 1,2,3 = .5, 1, 1 ; B: 0, .5, 1 → sup diff .5
    val a = Seq("1" -> 1L, "2" -> 1L)
    val b = Seq("2" -> 1L, "3" -> 1L)
    assert(math.abs(Ks.fromCounts(a, b, numeric = true) - 0.5) < 1e-12)
  }

  test("fromCounts: numeric vs lexicographic ordering differ when keys demand it") {
    // numeric order: 2 < 10 ; lexicographic: "10" < "2"
    val a = Seq("2" -> 1L)
    val b = Seq("10" -> 1L)
    assert(Ks.fromCounts(a, b, numeric = true) === 1.0)
    assert(Ks.fromCounts(a, b, numeric = false) === 1.0)
    // mixed case where intermediate CDFs differ
    val c = Seq("2" -> 1L, "10" -> 1L)
    val d = Seq("10" -> 2L)
    // numeric: after 2 → |0.5-0|=.5 ; after 10 → 0. lexicographic: after "10" → |0.5-1|=.5
    assert(math.abs(Ks.fromCounts(c, d, numeric = true) - 0.5) < 1e-12)
    assert(math.abs(Ks.fromCounts(c, d, numeric = false) - 0.5) < 1e-12)
  }

  test("fromCounts: empty side scores 0") {
    assert(Ks.fromCounts(Nil, Seq("a" -> 1L), numeric = false) === 0.0)
    assert(Ks.fromCounts(Seq("a" -> 1L), Nil, numeric = false) === 0.0)
  }

  test("fromCounts: duplicate keys are summed") {
    val a = Seq("x" -> 1L, "x" -> 1L, "y" -> 2L)
    val b = Seq("x" -> 2L, "y" -> 2L)
    assert(Ks.fromCounts(a, b, numeric = false) === 0.0)
  }

  test("fromCounts is symmetric (property)") {
    val gen = Gen.nonEmptyListOf(Gen.zip(Gen.choose(0, 20).map(_.toString), Gen.choose(1L, 50L)))
    checkProp(Prop.forAll(gen, gen) { (a, b) =>
      math.abs(Ks.fromCounts(a, b, numeric = true) - Ks.fromCounts(b, a, numeric = true)) < 1e-12
    })
  }

  test("fromCounts stays in [0,1] (property)") {
    val gen = Gen.listOf(Gen.zip(Gen.choose(0, 30).map(_.toString), Gen.choose(1L, 100L)))
    checkProp(Prop.forAll(gen, gen) { (a, b) =>
      val d = Ks.fromCounts(a, b, numeric = false)
      d >= 0.0 && d <= 1.0
    })
  }

  test("fromCounts: triangle-ish monotonicity — moving mass increases distance") {
    val base = Seq("1" -> 10L, "2" -> 10L)
    val mild = Seq("1" -> 12L, "2" -> 8L)
    val wild = Seq("1" -> 19L, "2" -> 1L)
    val dMild = Ks.fromCounts(base, mild, numeric = true)
    val dWild = Ks.fromCounts(base, wild, numeric = true)
    assert(dWild > dMild)
  }

  // ------------------------------------------------------------- bucketing

  test("bucketOf assigns half-open buckets over boundaries") {
    val b = Array(1.0, 2.0, 3.0)
    assert(Ks.bucketOf(b)(0.5) === 0)
    assert(Ks.bucketOf(b)(1.0) === 0)
    assert(Ks.bucketOf(b)(1.5) === 1)
    assert(Ks.bucketOf(b)(3.0) === 2)
    assert(Ks.bucketOf(b)(99.0) === 3)
  }

  test("bucketOf with empty boundaries maps everything to 0") {
    assert(Ks.bucketOf(Array.empty[Double])(5.0) === 0)
  }

  test("boundaries are sorted and distinct") {
    val df = spark.range(1000).selectExpr("cast(id % 17 as double) as v")
    val b  = Ks.boundariesOf(df, Seq("v"), 8)("v")
    assert(b.sameElements(b.sorted))
    assert(b.distinct.length === b.length)
  }

  // --------------------------------------------------------- statistic (DF)

  test("statistic: identical dataframes score 0") {
    val df = spark.range(100).selectExpr("id % 7 as v")
    assert(Ks.statistic(df, df, "v") === 0.0)
  }

  test("statistic: disjoint numeric ranges score 1") {
    val a = spark.range(50).selectExpr("id as v")
    val b = spark.range(100, 150).selectExpr("id as v")
    assert(Ks.statistic(a, b, "v") === 1.0)
  }

  test("statistic: matches fromCounts on a known example") {
    val a = Seq(1, 2).toDF("v")
    val b = Seq(2, 3).toDF("v")
    assert(math.abs(Ks.statistic(a, b, "v") - 0.5) < 1e-12)
  }

  test("statistic: string column, lexicographic order") {
    val a = Seq("apple", "banana").toDF("v")
    val b = Seq("banana", "cherry").toDF("v")
    assert(math.abs(Ks.statistic(a, b, "v") - 0.5) < 1e-12)
  }

  test("statistic: nulls are dropped on both sides") {
    val a = Seq(Some(1), Some(2), None).toDF("v")
    val b = Seq(Some(1), Some(2)).toDF("v")
    assert(Ks.statistic(a, b, "v") === 0.0)
  }

  test("statistic: filter shifting the distribution scores > 0") {
    val base = spark.range(1000).selectExpr("id % 10 as v")
    val filt = base.where("v >= 8")
    val d    = Ks.statistic(base, filt, "v")
    assert(d > 0.5)
  }

  test("statistic: binned path approximates the exact statistic") {
    val a = spark.range(20000).selectExpr("cast(id as double)/20000 as v")
    val b = spark.range(20000).selectExpr("pow(cast(id as double)/20000, 2.0) as v")
    val exact  = Ks.statistic(a, b, "v", maxBins = 100000)
    val binned = Ks.statistic(a, b, "v", maxBins = 128)
    assert(math.abs(exact - binned) < 0.05, s"exact=$exact binned=$binned")
  }

  test("bucketing bound: binned <= exact <= binned + the largest bucket mass (property)") {
    // values over 201 points, NaN, ±∞ and nulls, so most draws bucketise
    val side = Gen.choose(1, 30).flatMap(Gen.listOfN(_, Gen.frequency(
      1 -> Gen.const(Option.empty[Double]), 5 -> Gen.choose(-100, 100).map(i => Some(i * 0.25)),
      1 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).map(Some(_)))))
    checkProp(Prop.forAllNoShrink(side, side, Gen.choose(2, 8)) { (as, bs, maxBins) =>
      val (a, b)  = (as.toDF("v"), bs.toDF("v"))
      val exact   = Ks.statistic(a, b, "v", maxBins = Int.MaxValue)
      val binned  = Ks.statistic(a, b, "v", maxBins)
      val buckets = Ks.keySpaces(a, Seq("v"), maxBins)("v").key
      // the largest share of one side's non-null rows that one bucket holds
      def largest(df: DataFrame): Double = {
        val keys = df.select(buckets(col("v"))).collect().flatMap(r => Option(r.getString(0)))
        if (keys.isEmpty) 0.0 else keys.groupBy(identity).values.map(_.length).max.toDouble / keys.length
      }
      val mass = math.max(largest(a), largest(b))
      Prop(binned <= exact + 1e-12) :| s"maxBins $maxBins: binned $binned > exact $exact" &&
        Prop(exact <= binned + mass + 1e-12) :| s"maxBins $maxBins: exact $exact > binned $binned + $mass"
    }, minTests = 25)
  }

  test("isNumeric detects numeric and non-numeric columns") {
    val df = Seq((1, "a", 2.0)).toDF("i", "s", "d")
    assert(Ks.isNumeric(df, "i"))
    assert(Ks.isNumeric(df, "d"))
    assert(!Ks.isNumeric(df, "s"))
  }

  // ------------------------------------------------ key spaces, batched

  private val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 0.0, -0.0)

  /** Rows of (a, b, c, d, e, s): doubles a and b over 1 + `width` values plus
    * nulls, NaN, ±∞ and ±0.0; c constant; d all-null; e an int; s a string.
    * The widths put the distinct counts on both sides of a small maxBins.
    */
  private val keyFrames = for {
    n     <- Gen.choose(0, 24)
    wa    <- Gen.choose(0, 9)
    wb    <- Gen.choose(0, 3)
    rows  <- Gen.listOfN(n, for {
               a <- Gen.frequency(1 -> Gen.const(None), 2 -> Gen.oneOf(special).map(Some(_)),
                      6 -> Gen.choose(0, wa).map(i => Some(i * 1.25 - 3)))
               b <- Gen.frequency(1 -> Gen.const(None), 4 -> Gen.choose(0, wb).map(i => Some(i.toDouble)))
               e <- Gen.choose(-4, 4)
               s <- Gen.oneOf("x", "y", "z")
             } yield (a, b, 2.5, Option.empty[Double], e, s))
  } yield rows

  // "keyExpr's keys" names the one-column key space, `keySpaces(df, Seq(c),
  // maxBins)(c)`, the rule the deleted `Ks.keyExpr` applied; approxQuantile's
  // buckets are the independent reference
  test("keySpaces gives keyExpr's keys column by column, with or without known counts") {
    val cols = Seq("a", "b", "c", "d", "e", "s")
    checkProp(Prop.forAllNoShrink(keyFrames, Gen.oneOf(2, 3, 5), Gen.someOf(cols)) { (rows, maxBins, known) =>
      val df      = rows.toDF(cols: _*)
      val profile = Partition.profile(df).filter { case (c, _) => known.contains(c) }
      val batched = Ks.keySpaces(df, cols, maxBins, profile)
      cols.map { c =>
        val one = Ks.keySpaces(df, Seq(c), maxBins)(c)
        def keys(k: Ks.KeySpace) = df.select(k.key(col(c))).collect().map(r => Option(r.getString(0))).toSeq
        val distinct = df.agg(approx_count_distinct(col(c))).head().getLong(0)
        // a bucketised column's keys follow approxQuantile's boundaries
        val reference = Option.when(c != "s" && distinct > maxBins) {
          val probs  = (1 until maxBins).map(_.toDouble / maxBins).toArray
          val bounds = df.select(col(c).cast("double").as("x")).na.drop().stat
            .approxQuantile("x", probs, 0.001).distinct.sorted
          df.select(col(c).cast("double")).collect().toSeq
            .map(r => Option.when(!r.isNullAt(0))(Ks.bucketOf(bounds)(r.getDouble(0)).toString))
        }
        Prop(batched(c).numeric == one.numeric) :| s"$c: numeric ${batched(c).numeric} != ${one.numeric}" &&
          Prop(keys(batched(c)) == keys(one)) :| s"$c, maxBins $maxBins: ${keys(batched(c))} != ${keys(one)}" &&
          Prop(reference.forall(_ == keys(one))) :| s"$c, maxBins $maxBins: ${keys(one)} != approxQuantile's $reference"
      }.reduce(_ && _)
    }, minTests = 15)
  }
}
