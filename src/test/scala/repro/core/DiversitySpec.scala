package repro.core

import repro.{PropChecks, SparkSpec}
import org.scalacheck.{Gen, Prop}

class DiversitySpec extends SparkSpec with PropChecks {
  import spark.implicits._

  test("cv of {2,4}: sd=sqrt(2), mean=3") {
    assert(math.abs(Diversity.cv(Seq(2.0, 4.0)) - math.sqrt(2.0) / 3.0) < 1e-12)
  }

  test("cv of a constant sequence is 0") {
    assert(Diversity.cv(Seq(5.0, 5.0, 5.0)) === 0.0)
  }

  test("cv of fewer than two values is 0") {
    assert(Diversity.cv(Seq(7.0)) === 0.0)
    assert(Diversity.cv(Seq.empty[Double]) === 0.0)
  }

  test("cv with zero mean is defined as 0") {
    assert(Diversity.cv(Seq(-1.0, 1.0)) === 0.0)
  }

  test("cv uses |mean|: negative-mean column (loudness) still scores positive") {
    val pos = Diversity.cv(Seq(2.0, 4.0))
    val neg = Diversity.cv(Seq(-2.0, -4.0))
    assert(math.abs(pos - neg) < 1e-12)
    assert(neg > 0)
  }

  test("cv ignores NaN and infinite values") {
    assert(math.abs(Diversity.cv(Seq(2.0, 4.0, Double.NaN, Double.PositiveInfinity))
      - Diversity.cv(Seq(2.0, 4.0))) < 1e-12)
  }

  test("cv matches the paper's Example 3.2 ordering: loudness-like beats danceability-like") {
    val loud  = Seq(-11.0, -7.8, -10.6, -8.2, -9.5)
    val dance = Seq(0.555, 0.586, 0.555, 0.593, 0.57)
    assert(Diversity.cv(loud) > Diversity.cv(dance))
  }

  test("cv(df) equals cv(seq) on the same values") {
    val xs = Seq(1.0, 5.0, 9.0, 2.0, 2.0)
    val df = xs.toDF("v")
    assert(math.abs(Diversity.cv(df, "v") - Diversity.cv(xs)) < 1e-12)
    // both skip NaN and ±∞
    Seq(Seq(2.0, 4.0, Double.PositiveInfinity),
        Seq(2.0, Double.NaN, 4.0, Double.NegativeInfinity, 7.0, Double.PositiveInfinity)).foreach { ys =>
      assert(math.abs(Diversity.cv(ys.toDF("v"), "v") - Diversity.cv(ys)) < 1e-12, ys)
    }
  }

  test("cv(df) drops nulls") {
    val df = Seq(Some(1.0), Some(5.0), None).toDF("v")
    assert(math.abs(Diversity.cv(df, "v") - Diversity.cv(Seq(1.0, 5.0))) < 1e-12)
  }

  test("cv(df) on a single-row column is 0") {
    assert(Diversity.cv(Seq(3.14).toDF("v"), "v") === 0.0)
  }

  test("cv(df) casts integer columns") {
    val df = Seq(2, 4).toDF("v")
    assert(math.abs(Diversity.cv(df, "v") - math.sqrt(2.0) / 3.0) < 1e-12)
  }

  test("cv is scale-invariant (property)") {
    val gen = Gen.listOfN(6, Gen.choose(1.0, 100.0))
    checkProp(Prop.forAll(gen, Gen.choose(0.1, 10.0)) { (xs, k) =>
      math.abs(Diversity.cv(xs.map(_ * k)) - Diversity.cv(xs)) < 1e-6
    })
  }

  test("cv is non-negative (property)") {
    val gen = Gen.listOf(Gen.choose(-100.0, 100.0))
    checkProp(Prop.forAll(gen)(xs => Diversity.cv(xs) >= 0.0))
  }
}
