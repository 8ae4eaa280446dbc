package repro.core

import repro.SparkSpec

class CaptionSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(("1991", "1990s"), ("1992", "1990s"), ("2001", "2000s"))
    .toDF("year", "decade")
  private lazy val freqP = Partition.frequency(df, "decade", 2)
  private lazy val m2oP  =
    Partition.candidatesMulti(df, "year", Seq(2)).find(_.method == "many-to-one").get

  test("exceptionality caption carries shares, ratio, attribute and set") {
    val c = Caption.render("exceptionality", "decade", freqP, "2010s", 0.56, 1.69,
      SetStats(inShare = Some(0.035), outShare = Some(0.61)))
    assert(c.contains("decade"))
    assert(c.contains("2010s"))
    assert(c.contains("61.0%"))
    assert(c.contains("3.5%"))
    assert(c.contains("more frequent"))
    assert(c.contains("0.560"))
  }

  test("exceptionality caption flips direction for depleted sets") {
    val c = Caption.render("exceptionality", "decade", freqP, "1970s", 0.5, 1.0,
      SetStats(inShare = Some(0.4), outShare = Some(0.1)))
    assert(c.contains("less frequent"))
  }

  test("exceptionality caption prints no ratio for a set absent from the output") {
    val c = Caption.render("exceptionality", "decade", freqP, "1970s", 0.5, 1.0,
      SetStats(inShare = Some(0.049), outShare = Some(0.0)))
    assert(!c.contains("Infinity"), c)
    assert(c.contains("0.0% of the output vs 4.9% of the input."), c)
  }

  test("exceptionality caption degrades gracefully without stats") {
    val c = Caption.render("exceptionality", "decade", freqP, "2010s", 0.5, 1.0, SetStats())
    assert(c.contains("2010s"))
    assert(!c.contains("%"))
  }

  test("diversity caption reports σ-distance and direction") {
    val below = Caption.render("diversity", "mean_loudness", m2oP, "1990s", 0.13, 1.69,
      SetStats(setMean = Some(-10.9), overallMean = Some(-8.4), overallSd = Some(1.5)))
    assert(below.contains("below"))
    assert(below.contains("mean_loudness"))
    assert(below.contains("1990s"))
    val above = Caption.render("diversity", "m", m2oP, "2020s", 0.04, 1.7,
      SetStats(setMean = Some(0.9), overallMean = Some(0.5), overallSd = Some(0.1)))
    assert(above.contains("above"))
  }

  test("many-to-one partitions label with the coarser attribute B (§3.7)") {
    val c = Caption.render("diversity", "mean_loudness", m2oP, "1990s", 0.13, 1.69, SetStats())
    assert(c.contains("decade = '1990s'"), c)
  }

  test("frequency partitions label with the value's own attribute") {
    val c = Caption.render("exceptionality", "decade", freqP, "2010s", 0.5, 1.0, SetStats())
    assert(c.contains("decade = '2010s'"))
  }

  test("unknown measure falls back to a generic caption") {
    val c = Caption.render("surprise", "x", freqP, "s", 0.1, 0.2, SetStats())
    assert(c.contains("x") && c.contains("s"))
  }
}
