package repro.core

import repro.SparkSpec
import org.apache.spark.sql.functions._
import java.io.File
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.TimeUnit
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

class ExplainSpec extends SparkSpec {
  import spark.implicits._

  /** Spotify-in-miniature: decade is a many-to-one coarsening of year; the
    * filter on popularity selects almost exclusively 2010s songs; loudness is
    * notched down in the 1990s.
    */
  private lazy val mini = {
    val rows = (1 to 600).map { i =>
      val year   = 1970 + (i % 50)
      val decade = s"${year / 10 * 10}s"
      val pop    = if (decade == "2010s") 70 + i % 25 else 20 + i % 40
      val loud   = (if (decade == "1990s") -14.0 else -8.0) + (i % 7) * 0.1
      (year, decade, pop, loud, i % 3)
    }
    rows.toDF("year", "decade", "popularity", "loudness", "noise").cache()
  }

  private val fastCfg = FedexConfig(nSets = Seq(5), topKColumns = 3)

  test("excludedAttrs: only the columns the filter predicate reads, not name substrings") {
    val df = Seq((30, 1, "x")).toDF("age", "a", "g")
    assert(Fedex.excludedAttrs(Step(Seq(df), FilterOp("age > 3"))) === Set("age"))
    assert(Fedex.excludedAttrs(Step(Seq(df), FilterOp("a = 1 AND g = 'age'"))) === Set("a", "g"))
  }

  test("filter step: skyline is non-empty and every candidate has positive raw contribution") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")), fastCfg)
    assert(res.skyline.nonEmpty)
    assert(res.candidates.forall(_.contribution > 0))
  }

  test("filter step: top explanation points at decade/year = 2010s (Example 1.2 shape)") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")), fastCfg)
    val top = res.skyline.head.candidate
    assert(Seq("decade", "year", "popularity").contains(top.attr))
    val explainsDecade = res.skyline.exists(e =>
      e.candidate.set.contains("2010") || e.candidate.set.contains("201"))
    assert(explainsDecade, res.skyline.map(e => e.candidate.key).mkString("; "))
  }

  test("group-by step: 1990s explains the loudness diversity via many-to-one (Example 3.10 shape)") {
    val step = Step(Seq(mini), GroupByOp(Seq("year"), Seq(AggSpec("mean", "loudness", "mean_loudness"))))
    val res  = Fedex.explain(step, fastCfg)
    assert(res.skyline.nonEmpty)
    val hit = res.skyline.exists(e => e.candidate.set.contains("1990"))
    assert(hit, res.skyline.map(_.candidate.key).mkString("; "))
  }

  test("group-by: the more diverse column outranks the flatter one in columnScores") {
    val step = Step(Seq(mini), GroupByOp(Seq("year"),
      Seq(AggSpec("mean", "loudness", "mean_loudness"), AggSpec("mean", "noise", "mean_noise"))))
    val res = Fedex.explain(step, fastCfg)
    assert(res.columnScores("mean_loudness") > res.columnScores("mean_noise"))
  }

  test("skyline members are mutually non-dominated in (I, C̄)") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")), fastCfg)
    val sky = res.skyline.map(_.candidate)
    sky.foreach { c =>
      assert(!res.candidates.exists(o =>
        o.interestingness >= c.interestingness && o.stdContribution >= c.stdContribution &&
          (o.interestingness > c.interestingness || o.stdContribution > c.stdContribution)))
    }
  }

  test("userColumns restricts the explanation to the chosen columns (§3.8)") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")),
      fastCfg.copy(userColumns = Some(Seq("loudness"))))
    assert(res.columnScores.keySet === Set("loudness"))
    assert(res.candidates.forall(_.attr === "loudness"))
  }

  test("topKColumns=1 only explains the single most interesting column") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")),
      fastCfg.copy(topKColumns = 1))
    assert(res.candidates.map(_.attr).distinct.size <= 1)
  }

  test("sampling larger than the data yields the identical skyline (FEDEX-SAMPLING == FEDEX)") {
    val step  = Step(Seq(mini), FilterOp("popularity > 65"))
    val exact = Fedex.explain(step, fastCfg)
    val samp  = Fedex.explain(step, fastCfg.copy(sampleRows = Some(100000L)))
    assert(exact.skyline.map(_.candidate.key) === samp.skyline.map(_.candidate.key))
  }

  test("weighted ranking: wC≫wI orders skyline by standardized contribution") {
    val step = Step(Seq(mini), FilterOp("popularity > 65"))
    val res  = Fedex.explain(step, fastCfg.copy(wI = 0.0001, wC = 1.0))
    val stds = res.skyline.map(_.candidate.stdContribution)
    assert(stds === stds.sortBy(-_))
  }

  test("nSets are combined: partitions for every requested n feed one skyline") {
    val step = Step(Seq(mini), FilterOp("popularity > 65"))
    val res5  = Fedex.explain(step, fastCfg.copy(nSets = Seq(3)))
    val res10 = Fedex.explain(step, fastCfg.copy(nSets = Seq(3, 7)))
    assert(res10.candidates.size >= res5.candidates.size)
  }

  test("a step with no positive contribution yields an empty skyline, not an error") {
    val flat = (1 to 100).map(i => (i % 4, "x")).toDF("v", "c")
    val res  = Fedex.explain(Step(Seq(flat), FilterOp("v >= 0")), fastCfg) // no-op filter
    assert(res.candidates.isEmpty)
    assert(res.skyline.isEmpty)
  }

  test("every skyline explanation has a caption mentioning its attribute or set") {
    val res = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")), fastCfg)
    res.skyline.foreach { e =>
      assert(e.caption.contains(e.candidate.attr) || e.caption.contains(e.candidate.set))
      assert(e.caption.nonEmpty)
    }
  }

  test("join step end-to-end: deviation in the dimension column is explained") {
    val dim  = Seq((1, "x"), (2, "y"), (3, "z"), (4, "w")).toDF("k", "name")
    val fact = (1 to 50).map(i => if (i % 10 == 0) 2 else 1).toDF("k")
    val step = Step(Seq(dim, fact), JoinOp("k", "k", "dim_", "fact_"))
    val res  = Fedex.explain(step, fastCfg)
    assert(res.skyline.nonEmpty)
    assert(res.skyline.exists(e => e.candidate.attr.startsWith("dim_") ||
      e.candidate.attr.startsWith("fact_")))
  }

  test("rankedKeys orders all candidates by the weighted score") {
    // the n=5 and n=10 partitions of year share sets, so candidates share keys
    val res  = Fedex.explain(Step(Seq(mini), FilterOp("popularity > 65")), fastCfg.copy(nSets = Seq(5, 10)))
    val keys = res.rankedKeys()
    assert(res.candidates.size > keys.size)
    assert(keys.distinct.size === keys.size)
    assert(keys.toSet === res.candidates.map(_.key).toSet)
    // each key ranks at its best score
    val best   = res.candidates.groupMapReduce(_.key)(_.weightedScore(1, 1))(math.max)
    val scores = keys.map(best)
    assert(scores === scores.sortBy(-_))
  }

  test("crossColumns pairs partitions across columns (superset of candidates)") {
    val step  = Step(Seq(mini), FilterOp("popularity > 65"))
    val plain = Fedex.explain(step, fastCfg)
    val cross = Fedex.explain(step, fastCfg.copy(crossColumns = true))
    assert(cross.candidates.size >= plain.candidates.size)
  }

  test("group-by with two keys: partitions on both keys are considered") {
    val step = Step(Seq(mini), GroupByOp(Seq("decade", "noise"),
      Seq(AggSpec("mean", "popularity", "mp"))))
    val res = Fedex.explain(step, fastCfg)
    val pattrs = res.candidates.map(_.partitionAttr).distinct
    assert(pattrs.nonEmpty)
    assert(pattrs.forall(Seq("decade", "noise").contains))
  }

  test("more partition targets than pool threads: explain completes with the same skyline") {
    // nine string keys -> nine targets; only the mean is scored, so topKColumns
    // does not change which columns are explained
    val keys = (1 to 9).map(k => s"k$k")
    val df = (1 to 240).map { i =>
      (keys.indices.map(k => s"v${(i / (k + 1)) % 3}"), (if (i % 5 == 0) 40.0 else 10.0) + i % 7)
    }.toDF("ks", "m").select(keys.indices.map(k => col("ks")(k).as(keys(k))) :+ col("m"): _*)
    val step = Step(Seq(df), GroupByOp(keys, Seq(AggSpec("mean", "m", "mean_m"))))
    val cfg  = fastCfg.copy(topKColumns = 9)
    val wide = Await.result(Future(Fedex.explain(step, cfg))(ExecutionContext.global), 5.minutes)
    val base = Fedex.explain(step, cfg.copy(topKColumns = FedexConfig().topKColumns))
    assert(wide.skyline.nonEmpty)
    assert(wide.skyline.map(_.candidate.key) === base.skyline.map(_.candidate.key))
  }

  test("group-by: an explain runs as many Spark jobs for one explained column as for three") {
    val step = Step(Seq(mini), GroupByOp(Seq("decade"), Seq(AggSpec("mean", "loudness", "ml"),
      AggSpec("max", "popularity", "xp"), AggSpec("sum", "noise", "sn"))))
    mini.count() // cache the input before counting
    val (one, three) = (sparkJobs(Fedex.explain(step, fastCfg.copy(topKColumns = 1))),
      sparkJobs(Fedex.explain(step, fastCfg.copy(topKColumns = 4))))
    assert(one > 0)
    assert(one === three)
  }

  test("a JVM that runs one explain exits on its own") {
    val java  = Paths.get(sys.props("java.home"), "bin", "java").toString
    val opens = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(_.startsWith("--add-opens")).toSeq
    val log   = File.createTempFile("one-explain", ".log")
    val proc  = new ProcessBuilder((Seq(java, "-Xmx1g") ++ opens ++
        Seq("-cp", sys.props("java.class.path"), "repro.core.OneExplain")).asJava)
      .redirectErrorStream(true).redirectOutput(log).start()
    val exited = proc.waitFor(3, TimeUnit.MINUTES)
    if (!exited) proc.destroyForcibly().waitFor()
    val out = new String(Files.readAllBytes(log.toPath)).linesIterator.toSeq
    log.delete()
    assert(exited, "the JVM was still running 3 minutes after start:\n" + out.takeRight(20).mkString("\n"))
    assert(proc.exitValue === 0, out.takeRight(20).mkString("\n"))
    assert(out.exists(_.startsWith("skyline=")))
  }
}
