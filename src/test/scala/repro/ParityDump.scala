package repro

import org.apache.spark.sql.SparkSession
import repro.core.{Fedex, FedexConfig, FedexResult, SetStats, Step, UnionOp}
import repro.data.{DataScale, Frames, Queries}

/** Prints the explanations of a fixed set of explains, every number at
  * `%.12e`, so that two commits can be compared with `diff`: column scores,
  * candidates (key, partition attribute, I, C, C̄, caption statistics),
  * skyline keys and captions. Candidates are printed sorted; the skyline in
  * its ranked order. Explain times go to stderr, so stdout depends only on
  * the explanations.
  *
  * Cases, at `DataScale.Test` on `local[4]` with 8 shuffle partitions: q11
  * sampled (500 rows) and exact, q21 exact and sampled (500 rows), q1
  * exact, a union of two Bank subsets, and q6 under `crossColumns`.
  *
  * Run with `sbt "Test/runMain repro.ParityDump"`.
  */
object ParityDump {

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().master("local[4]").appName("parity-dump")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val frames = new Frames(spark, DataScale.Test)
      val query  = Queries.all(frames).map(q => q.num -> q.step).toMap
      val union  = Step(Seq(frames.bank.where("Customer_Age < 45"),
        frames.bank.where("Customer_Age >= 40 AND Credit_Limit > 3000")), UnionOp(), "bank union")
      Seq(
        ("q11 sampled 500", query(11), FedexConfig(sampleRows = Some(500L))),
        ("q11 exact", query(11), FedexConfig()),
        ("q21 exact", query(21), FedexConfig()),
        ("q21 sampled 500", query(21), FedexConfig(sampleRows = Some(500L))),
        ("q1 exact", query(1), FedexConfig()),
        ("bank union exact", union, FedexConfig()),
        ("q6 crossColumns", query(6), FedexConfig(crossColumns = true))
      ).foreach { case (name, step, cfg) =>
        val start = System.nanoTime()
        val res   = Fedex.explain(step, cfg)
        System.err.println(f"$name: explain ${(System.nanoTime() - start) / 1e9}%.1f s")
        dump(name, res)
      }
    } finally spark.stop()
  }

  private def num(x: Double): String = f"$x%.12e"

  private def stats(s: SetStats): String =
    Seq(s.inShare, s.outShare, s.setMean, s.overallMean, s.overallSd).map(_.fold("-")(num)).mkString(",")

  private def dump(name: String, res: FedexResult): Unit = {
    println(s"== $name")
    res.columnScores.toSeq.sorted.foreach { case (a, s) => println(s"score $a ${num(s)}") }
    res.candidates.map { c =>
      s"candidate ${c.key} partition=${c.partitionAttr} I=${num(c.interestingness)} " +
        s"C=${num(c.contribution)} Cbar=${num(c.stdContribution)} stats=${stats(c.stats)}"
    }.sorted.foreach(println)
    res.skyline.foreach(e => println(s"skyline ${e.candidate.key} ${num(e.weightedScore)}"))
    res.skyline.foreach(e => println(s"caption ${e.candidate.key}: ${e.caption}"))
  }
}
