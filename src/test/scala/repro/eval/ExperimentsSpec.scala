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
}
