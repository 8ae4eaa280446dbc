package perfbench

import repro.core._
import repro.data.{DataScale, Frames, Queries}

/** The replay is only a measurement when it returns what `Fedex.explain`
  * returns; this holds it to that on one step of each operation kind.
  */
class ReplaySpec extends BenchSpark {
  private lazy val frames  = new Frames(spark, DataScale.Test)
  private lazy val queries = Queries.all(frames)
  private def step(num: Int): Step = queries.find(_.num == num).get.step
  private val cfg = Workloads.config(QuerySpec(0, sampled = false), seed = 42)

  private def assertReplayMatches(st: Step, c: FedexConfig): ReplayOut = {
    val expected = Fedex.explain(st, c)
    val out = Replay.explain(st, c, spark.sparkContext, new Tracer, explainId = 1)
    assert(Replay.sameResult(out.result, expected),
      s"replay ${out.result.skyline.map(_.candidate.key)} vs explain ${expected.skyline.map(_.candidate.key)}")
    assert(out.spans.map(_.name).toSet ==
      Set("explain", "interestingness", "partition", "partition.target", "contribution",
        "contribution.pair", "skyline", "caption"))
    assert(out.pairs.size == out.spans.count(_.name == "contribution.pair"))
    out
  }

  test("filter (sampled): replay equals Fedex.explain, and its skyline passes the output checks") {
    val c = cfg.copy(sampleRows = Some(500))
    val out = assertReplayMatches(step(11), c)
    assert(Checks.skyline(out.result).isEmpty)
    assert(Checks.contributions(step(11), c, out.result).isEmpty)
  }

  test("join: replay equals Fedex.explain") {
    assertReplayMatches(step(1), cfg)
  }

  test("group-by: replay equals Fedex.explain") {
    assertReplayMatches(step(27), cfg)
  }

  test("union (no paper query): replay equals Fedex.explain") {
    val st = Step(Seq(frames.bank.where("Gender = 'F'"), frames.bank.where("Gender = 'M'")), UnionOp())
    assertReplayMatches(st, cfg)
  }

  test("sameResult notices a changed contribution") {
    val res = Fedex.explain(step(27), cfg)
    val c = res.candidates.head
    val changed = res.copy(candidates = c.copy(contribution = c.contribution + 1e-6) +: res.candidates.tail)
    assert(Replay.sameResult(res, res))
    assert(!Replay.sameResult(changed, res))
  }
}
