package repro.eval

import repro.SparkSpec
import repro.data.{DataScale, Frames, Queries}

class ExperimentsSpec extends SparkSpec {

  private lazy val queries = Queries.all(new Frames(spark, DataScale.Test))

  test("Fig 9 projection: each input keeps the query's required columns and the step resolves") {
    assert(queries.size === 30)
    queries.foreach { q =>
      val bare = Experiments.projectStep(q, Seq.empty)
      val req  = Experiments.requiredCols(q).toMap
      assert(bare.inputs.indices.forall(req.contains), s"q${q.num}")
      req.foreach { case (i, cols) => assert(bare.inputs(i).columns.toSeq === cols, s"q${q.num} input $i") }
      assert(bare.output.schema.nonEmpty, s"q${q.num}")
      // choosing every column restores the query's output schema
      val full = Experiments.projectStep(q, q.step.inputs.flatMap(_.columns))
      assert(full.output.columns.toSet === q.step.output.columns.toSet, s"q${q.num}")
    }
  }

  test("every figure's title and headers are ASCII") {
    val figures = Seq(Experiments.tables23, Experiments.fig3, Experiments.fig5, Experiments.fig7,
      Experiments.fig8) ++ Experiments.fig9.values ++ Experiments.fig10.values ++ Experiments.fig11
    figures.foreach { f =>
      (f.title +: f.headers).foreach(s => assert(s.forall(_ < 128), s"non-ASCII in '$s'"))
    }
  }
}
